"""Independent references the tests compare branecalc against.

No branecalc command calls these; they compute, by a second route, what
the runtime computes or checks another way:

* ``induced_map``, ``invert_on_cohomology`` and ``is_quasi_iso`` compute
  H(f) and its inverse degree by degree from both models' cohomology, the
  inverse read off the tail of one ``Echelon`` fed [H(f) | I]; the tests use
  them as the reference for every section the pipelines build;
* ``rref_rows`` reads an ``Echelon``'s rows as the space's RREF rows;
* ``kernel``, ``reduce`` and ``fraction_cohomology_basis`` are the
  Fraction route to the cohomology bases and π: free-column kernel vectors
  with Fraction entries, normal forms read back as Fractions, and each
  representative scaled to lead with 1 before it is inserted; the runtime
  does the same on integer rows over one denominator;
* ``by_fiber`` is ``ModuleMap._unshuffle``'s parts as Elements over the
  element's denominator, {f: ρ(b_f)}, with ρ applied to each base part as
  a general algebra map (``_apply_algebra_map``), where the runtime
  relabels generators;
* ``module_map_value`` is F(e) as ``ModuleMap.__call__`` computed it before
  it summed into one int accumulator: Element products ρ(b_f)·F(f) over
  ``by_fiber``'s parts, summed by ``linear_combination``;
* ``delta_equations`` builds δ!'s equations as ``shriek_delta_semipure``
  did before it built them on int terms: d of a fresh monomial Element,
  the parts of ``by_fiber`` and Element products; with the rows it gives
  the values solved from them;
* ``hom_differential`` tabulates D(F) = d∘F - (-1)^(deg F) F∘d on the
  fiber monomials through a degree as ``Element``s, the route
  ``shriek.cocycle_defects`` took before it summed den·D(F) on ints;
  ``certificate_degree`` is the degree L + top that certificate checks
  through;
* ``path_images`` is ``path_model``'s d by the twisting series as it was
  computed before it ran on int terms: ``Derivation.__call__`` and the
  suspension derivation applied to ``Element``s, summed in ``Element``
  arithmetic;
* ``d_squared_witnesses`` finds the generators with d(dg) ≠ 0 by applying
  d to each monomial of dg as a word of generator Elements, by the Leibniz
  rule, where the runtime sums ``Derivation.leibniz`` rows on ints;
* ``morphism_phi`` is φ (or ε̃), the projection onto ∧V;
* ``gamma_evaluation`` pairs γ! against a fixed cocycle, as
  ``shriek.delta_evaluation`` does for δ!;
* ``pair_cocycle`` is the square cocycle a⊗b that the coproduct never forms;
* ``coproduct_double_composite`` is δ∨∘(δ∨⊗id) on triples;
* ``monomials`` lists a degree's monomials by the recursion over exponents
  that ``GradedAlgebra.monomials`` ran before it built suffix tables, the
  order reference for ``basis`` and ``monomials``;
* the tuple kernels, as the runtime ran them before it packed each
  monomial into one int: ``tuple_normalize`` (an insertion sort of the
  factor pairs counting odd transpositions), ``tuple_mul`` (a merge of two sorted factor
  tuples), ``tuple_leibniz`` (``Derivation.leibniz`` over factor tuples),
  ``tuple_unshuffle`` (``ModuleMap._unshuffle`` factor by factor) and
  ``tuple_halves`` (a square monomial's Künneth halves, each factor sent
  to its copy of the state by the tensor square's gid maps); each takes
  and gives monomials as (gid, exponent) tuples, with no width bound.
* ``check_associativity``, ``check_commutativity`` and ``check_frobenius``
  are the diagram checkers as they were before one sign rule
  (``brane_ops._signed`` and ``_swap``) replaced their own signs: each law
  on the unsigned dual tables, with (-1)^m, (-1)^m̄, (-1)^(m·m̄) and
  (-1)^(m|a|) written out where it needs them, m and m̄ the tables' shifts;
* ``formal_m`` and ``formal_m_bar`` are the formal dimensions m and m̄ by
  their generator-count formulas, the values the shifts of μ∨ and δ∨ must
  take.

pytest does not collect this module; tests import it as they import
``conftest``.
"""

from fractions import Fraction
from itertools import count
from math import factorial
from typing import Callable, Container, Sequence

from branecalc import (
    BraneOperation,
    DgaModel,
    DgaMorphism,
    Element,
    GradedAlgebra,
    ModelError,
    Provenance,
    Report,
    class_vector,
    cohomology_basis,
    quotient,
    shriek_gamma_pure,
)
from branecalc import _linalg as la
from branecalc.cohomology import _d_rows, _transpose
from branecalc.dga_models import (
    Derivation, _apply_algebra_map, _d_images, _suspension, path_model, tensor_model)
from branecalc.gca_core import add_tagged, linear_combination, translate
from branecalc.shriek import (
    ModuleMap, delta_degree, evaluation_pairing, fiber_basis, is_semi_pure)

F0 = Fraction(0)


def rref_rows(ech: la.Echelon) -> dict[int, la.Row]:
    """The rows scaled to 1 at their pivots: the space's RREF rows."""
    return {p: {j: Fraction(x, row[p]) for j, x in row.items()}
            for p, row in ech.rows.items()}


def kernel(ech: la.Echelon) -> dict[int, la.Row]:
    """Basis of the vectors over columns below ncols that every row kills,
    {free column f: v} with v[f] = 1, v[p] = -row_p[f] / row_p[p]."""
    basis = {f: {f: la.F1} for f in range(ech.ncols) if f not in ech.rows}
    for p, row in ech.rows.items():
        for f, x in row.items():
            v = basis.get(f)
            if v is not None:
                v[p] = Fraction(-x, row[p])
    return basis


def reduce(ech: la.Echelon, row: la.Row) -> la.Row:
    """The normal form of row modulo the space, as a new Fraction row."""
    out, den = ech._reduce(row)
    return {j: Fraction(x, den) for j, x in out.items()}


def fraction_cohomology_basis(
    M: DgaModel, n: int
) -> tuple[list[Element], dict[tuple, dict[int, Fraction]]]:
    """(representatives, π as {monomial: {class index: Fraction}}) of Hⁿ,
    by the Fraction kernel and normal forms: each nonzero normal form,
    scaled to lead with 1, is the next representative, inserted with 1 in
    its tail column."""
    basis = M.algebra.basis(n)
    dim = len(basis)
    matrix = _transpose(_d_rows(M, n))
    d_n = la.Echelon(dim)
    for i in sorted(matrix):
        d_n.insert(matrix[i])
    ech = la.Echelon(dim)
    if dim:
        for row in _d_rows(M, n - 1):
            ech.insert(row)
    reps: list[la.Row] = []
    projection: dict[tuple, dict[int, Fraction]] = {}
    for f, z in kernel(d_n).items():
        red = reduce(ech, z)
        cls = {j - dim: -c for j, c in red.items() if j >= dim}
        head = [j for j in red if j < dim]
        if head:
            lead = red[min(head)]
            rep = {j: red[j] / lead for j in head}
            ech.insert({**rep, dim + len(reps): la.F1})
            cls[len(reps)] = lead
            reps.append(rep)
        if cls:
            projection[basis[f]] = cls
    elements = [M.algebra.element({basis[j]: r[j] for j in sorted(r)}) for r in reps]
    return elements, projection


def by_fiber(F: ModuleMap, e: Element,
             fibers: Container | None = None) -> dict[tuple, Element]:
    """{f: ρ(b_f)} over e's fiber parts f (those in fibers, when given),
    with ρ applied to each base part b_f as the algebra map with generator
    images F.base_images."""
    src, tgt = F.source.algebra, F.target.algebra
    odd, base = src.odd, F.base_images
    parts: dict[int, dict[int, int]] = {}
    for mono, c in e.terms.items():
        b, f = [], []
        b_odd = f_odd = False
        for gid, exp in src.unpack(mono):
            if gid in base:
                b.append((gid, exp))
                if odd[gid]:
                    b_odd = not b_odd
                    if f_odd:
                        c = -c
            else:
                f.append((gid, exp))
                if odd[gid]:
                    f_odd = not f_odd
        fiber = src.pack(f)
        if fibers is None or fiber in fibers:
            parts.setdefault(fiber, {})[src.pack(b)] = (
                -c if b_odd and F.degree % 2 else c)
    return {f: _apply_algebra_map(Element(src, b, e.den), base, tgt)
            for f, b in parts.items()}


def module_map_value(F: ModuleMap, e: Element) -> Element:
    """F(e) = Σ_f ρ(b_f)·F(f) over the parts of by_fiber(F, e, F.images), one
    Element product per part, summed by linear_combination."""
    return linear_combination(F.target.algebra, (
        (1, b * F.images[f]) for f, b in by_fiber(F, e, F.images).items()))


def hom_differential(F: ModuleMap, max_fiber_degree: int) -> ModuleMap:
    """D(F) = d∘F - (-1)^deg F F∘d, tabulated on fiber monomials."""
    sgn = -1 if F.degree % 2 else 1
    images: dict[tuple, Element] = {}
    for n in range(max_fiber_degree + 1):
        for mono in fiber_basis(F.source, n):
            e = F.source.algebra.monomial_element(mono)
            val = F.target.d(F(e)) - F(F.source.d(e)) * sgn
            if not val.is_zero():
                images[mono] = val
    return ModuleMap(F.source, F.target, F.degree + 1, F.base_images, images)


def certificate_degree(F: ModuleMap) -> int:
    """L + top: the largest fiber degree of F.images' keys plus the largest
    fiber generator degree, the degree cocycle_defects checks through."""
    alg, base = F.source.algebra, set(F.source.base_gids)
    top = max((g.degree for g in alg.generators if g.gid not in base), default=0)
    return max(map(alg.monomial_degree, F.images)) + top


def path_images(V: DgaModel) -> dict[int, Element]:
    """path_model(V).d.images by the Element series, in a path algebra of
    its own whose generators have path_model's ids: d(sv) = 1⊗v - v⊗1 -
    Σ_{i≥1} (sd)^i/i! (v⊗1), filled in ascending degree of v."""
    alg = GradedAlgebra(f"path({V.algebra.name})")
    left, right = add_tagged(alg, V.algebra.generators, V.algebra.generators)
    susp, s_der = _suspension(V, alg, [left, right], 1)
    images = {**_d_images(V, alg, left), **_d_images(V, alg, right)}
    for g in sorted(V.algebra.generators, key=lambda h: (h.degree, h.gid)):
        d_partial = Derivation(alg, 1, images)
        total = alg.generator_element(right[g.gid]) - alg.generator_element(left[g.gid])
        u = alg.generator_element(left[g.gid])
        for i in count(1):
            u = s_der(d_partial(u))
            if u.is_zero():
                break
            total = total - u * Fraction(1, factorial(i))
        if not total.is_zero():
            images[susp[g.gid]] = total
    return images


def delta_equations(V: DgaModel) -> tuple[list[la.Row], int, dict[tuple, Element]]:
    """(rows, number of unknowns, values) of δ!'s solve on the semi-pure
    minimal V: the equations D(f) = 0 in shriek_delta_semipure's order, each
    term from Element arithmetic, and the values f solved from them."""
    assert is_semi_pure(V)
    path = path_model(V)
    square, _, _ = tensor_model(V, V)
    alg, sq = path.algebra, square.algebra
    r = delta_degree(V)
    sign, lead = alg.normalize([(alg.gen(Provenance("susp", 1, g.name)).gid, 1)
                                for g in V.algebra.generators if not g.is_odd])
    assert sign == 1
    odd_copies = [(sq.gen(g.prov.tagged("L")).gid, sq.gen(g.prov.tagged("R")).gid)
                  for g in V.algebra.generators if g.is_odd]
    known = sq.one()
    for left, right in odd_copies:
        known = known * (sq.generator_element(right) - sq.generator_element(left))

    def in_correction_ideal(mono):
        gids = {g for g, _ in sq.unpack(mono)}
        return any(left in gids and right in gids for left, right in odd_copies)

    base_images = {gid: sq.generator_element(alg.gen(gid).prov) for gid in path.base_gids}
    fiber_cut = alg.monomial_degree(lead) + 1
    fiber_monos = [m for n in range(fiber_cut + 1) for m in fiber_basis(path, n)]
    unknowns: dict[tuple, list] = {}
    n_vars = 0
    for mono in fiber_monos:
        for tmono in sq.basis(alg.monomial_degree(mono) + r):
            if mono != lead or in_correction_ideal(tmono):
                unknowns.setdefault(mono, []).append((n_vars, tmono))
                n_vars += 1
    rows: list[la.Row] = []
    sgn_r = -1 if r % 2 else 1
    unsolved = ModuleMap(path, square, r, base_images, {})
    for mono in fiber_monos:
        if alg.monomial_degree(mono) == fiber_cut:
            continue
        eqs: dict[tuple, la.Row] = {}

        def add(col, e, scale):
            if e.den != 1:
                scale = Fraction(scale, e.den)
            for t, c in e.terms.items():
                row = eqs.setdefault(t, {})
                row[col] = row.get(col, 0) + c * scale

        if mono == lead:
            add(n_vars, square.d(known), -1)
        for vi, tmono in unknowns.get(mono, ()):
            add(vi, square.d(sq.monomial_element(tmono)), 1)
        dmono = path.d(alg.monomial_element(mono))
        for f_part, b_elem in by_fiber(unsolved, dmono).items():
            if f_part == lead:
                add(n_vars, b_elem * known, sgn_r)
            for vi, tmono in unknowns.get(f_part, ()):
                add(vi, b_elem * sq.monomial_element(tmono), -sgn_r)
        for row in eqs.values():
            row = {j: c for j, c in row.items() if c}
            if row:
                rows.append(row)
    sol = la.solve(rows, n_vars)
    values = {}
    for mono in fiber_monos:
        val = sq.element({tmono: sol[vi] for vi, tmono in unknowns.get(mono, ()) if vi in sol})
        if mono == lead:
            val = val + known
        if val.terms:
            values[mono] = val
    return rows, n_vars, values


def d_squared_witnesses(M: DgaModel) -> list[str]:
    """The names of the generators g with d(dg) ≠ 0, in gid order: d of each
    monomial w₁⋯w_k of dg, a word of generators, is
    Σ_i (-1)^(r·|w₁⋯w_(i-1)|) w₁⋯d(w_i)⋯w_k in Element products."""
    alg, d = M.algebra, M.d
    zero = alg.zero()

    def d_monomial(mono) -> Element:
        word = [gid for gid, e in alg.unpack(mono) for _ in range(e)]
        total, pre, pre_degree = zero, alg.one(), 0
        for i, gid in enumerate(word):
            post = alg.one()
            for later in word[i + 1:]:
                post = post * alg.generator_element(later)
            term = pre * d.images.get(gid, zero) * post
            total = total + (-term if d.degree * pre_degree % 2 else term)
            pre = pre * alg.generator_element(gid)
            pre_degree += alg.gen(gid).degree
        return total

    def d_of(e: Element) -> Element:
        return linear_combination(alg, ((1, d_monomial(m) * e.coefficient(m)) for m in e.terms))

    return [g.name for g in alg.generators if d_of(d.images.get(g.gid, zero)).terms]


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
        view = rref_rows(ech)
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


def morphism_phi(M: DgaModel) -> DgaMorphism:
    """φ: sphere model → ∧V, or ε̃: disk model → ∧V; identity on V, zero on
    every suspension: the projection onto the quotient by the suspensions."""
    return quotient(M, [g.gid for g in M.algebra.generators if g.prov.kind == "susp"])[1]


def gamma_evaluation(V: DgaModel) -> tuple[Element, list[Fraction], DgaModel]:
    """Pair γ! against [Π s2_y_j ⊗ 1] in ∧s1V^even = sphere/(V, s1V^odd)."""
    gs = shriek_gamma_pure(V)
    odds = [g.name for g in V.algebra.generators if g.is_odd]
    kill = [g.prov for g in V.algebra.generators]
    kill += [Provenance("susp", 1, nm) for nm in odds]
    Q, proj = quotient(gs.target, kill)
    z = gs.source.algebra.one()
    for nm in odds:
        z = z * gs.source.algebra.generator_element(Provenance("susp", 2, nm))
    ev, vec = evaluation_pairing(gs, z, proj)
    return ev, vec, Q


def pair_cocycle(state: DgaModel, square: DgaModel, left: dict[int, int],
                 right: dict[int, int], pair) -> Element:
    """The square cocycle a⊗b of the representatives of the pair, carried
    into (square, left, right) = tensor_model(state, state) by translate
    along the gid maps left and right.  The coproduct never forms it; this
    is the per-pair reference the tests check it against."""
    (da, ia), (db, ib) = pair
    ra = cohomology_basis(state, da).representatives[ia]
    rb = cohomology_basis(state, db).representatives[ib]
    return translate(ra, square.algebra, left) * translate(rb, square.algebra, right)


def _add(acc: dict, key, val: Fraction) -> None:
    s = acc.get(key, F0) + val
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


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


def monomials(alg: GradedAlgebra, gids: Sequence[int], n: int) -> tuple:
    """The canonical monomials of degree n in the generators gids alone
    (ascending ids), each degree enumerated afresh by a recursion that picks
    the first generator's exponent outermost, each exponent ascending."""
    if n < 0:
        return ()
    gens = [(gid, alg.gen(gid).degree, alg.odd[gid]) for gid in gids]
    out: list = []

    def rec(idx: int, remaining: int, acc: list[tuple[int, int]]) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        if idx >= len(gens):
            return
        gid, degree, odd = gens[idx]
        max_e = 1 if odd else remaining // degree
        for e in range(0, max_e + 1):
            if e * degree > remaining:
                break
            if e:
                acc.append((gid, e))
            rec(idx + 1, remaining - e * degree, acc)
            if e:
                acc.pop()

    rec(0, n, [])
    return tuple(out)


def check_associativity(prod: BraneOperation, max_degree: int | None = None) -> Report:
    """(μ∨⊗id)∘μ∨ = (-1)^m (id⊗̂μ∨)∘μ∨, with (id⊗̂F)(a⊗b) = (-1)^(m|a|) a⊗F(b)."""
    m = prod.shift
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
    checked = 0
    failures = []
    if op.kind == "product-dual":
        sgn = -1 if op.shift % 2 else 1
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
        sgn = -1 if op.shift % 2 else 1
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
    m, mb = prod.shift, coprod.shift
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


def formal_m(V) -> int:
    """m = Σ|y_j| - Σ(|x_i| - 1) over odd generators y and even generators x."""
    gens = V.algebra.generators
    return sum(g.degree if g.is_odd else 1 - g.degree for g in gens)


def formal_m_bar(V, k: int = 2) -> int:
    """m̄ = Σ_v c(v), with c(v) = a when a := |v| - (k-1) is odd and 1 - a
    otherwise."""
    gens = V.algebra.generators
    return sum(a if a % 2 else 1 - a for a in (g.degree - (k - 1) for g in gens))


# ---------------------------------------------------------------------------
# the tuple kernels


def tuple_normalize(alg: GradedAlgebra, raw) -> tuple[int, tuple]:
    """(sign, factors) of the raw (gid, exponent) factors multiplied in
    their order: an insertion sort of the pairs, a transposition of g^a and
    h^b costing (-1)^(a|g|·b|h|); (0, ()) when an odd generator meets
    itself."""
    odd = alg.odd
    pairs = [(gid, e) for gid, e in raw if e]
    sign = 1
    for i in range(1, len(pairs)):
        j = i
        while j > 0 and pairs[j - 1][0] > pairs[j][0]:
            (g, a), (h, b) = pairs[j - 1], pairs[j]
            if odd[g] and odd[h] and a * b % 2:
                sign = -sign
            pairs[j - 1], pairs[j] = pairs[j], pairs[j - 1]
            j -= 1
    factors: list = []
    for gid, e in pairs:
        if factors and factors[-1][0] == gid:
            factors[-1] = (gid, factors[-1][1] + e)
        else:
            factors.append((gid, e))
    if any(odd[g] and e > 1 for g, e in factors):
        return 0, ()
    return sign, tuple(factors)


def tuple_mul(alg: GradedAlgebra, a: tuple, b: tuple) -> tuple[int, tuple]:
    """(sign, a·b) of two sorted factor tuples, merged: an odd factor of b
    passes the odd factors of a not merged yet; (0, ()) on an odd clash."""
    odd, sign, merged = alg.odd, 1, []
    ia = ib = 0
    while ia < len(a) and ib < len(b):
        (ga, ea), (gb, eb) = a[ia], b[ib]
        if ga < gb:
            merged.append(a[ia])
            ia += 1
        elif ga > gb:
            if odd[gb] and sum(odd[g] for g, _ in a[ia:]) % 2:
                sign = -sign
            merged.append(b[ib])
            ib += 1
        elif odd[ga]:
            return 0, ()
        else:
            merged.append((ga, ea + eb))
            ia += 1
            ib += 1
    return sign, tuple(merged + list(a[ia:]) + list(b[ib:]))


def tuple_leibniz(d: Derivation, mono: tuple) -> dict[tuple, int]:
    """d.den·d(mono) over factor tuples: for each factor g^e with an image,
    e·pre·dg·g^(e-1)·suf with dg's terms moved to the front, the sign
    (-1)^(|pre||g|) times that of the product; nonzero terms only."""
    alg = d.algebra
    out: dict[tuple, int] = {}
    pre_odd = False
    for i, (gid, exp) in enumerate(mono):
        if gid in d._ints:
            rest = mono[:i] + (((gid, exp - 1),) if exp > 1 else ()) + mono[i + 1:]
            c0 = -exp if pre_odd and alg.odd[gid] else exp
            for m, c in d._ints[gid].items():
                sign, prod = tuple_mul(alg, alg.unpack(m), rest)
                if sign:
                    out[prod] = out.get(prod, 0) + sign * c0 * c
        if alg.odd[gid] and exp % 2:
            pre_odd = not pre_odd
    return {m: c for m, c in out.items() if c}


def tuple_unshuffle(F: ModuleMap, terms: dict[tuple, int],
                    fibers: Container | None = None) -> dict[tuple, dict[tuple, int]]:
    """F._unshuffle over factor tuples: each term's base factors go through
    F._relabel with their sign, an odd base factor passes the odd fiber
    factors before it, the relabelled base part is sorted by
    tuple_normalize, and F passes it with (-1)^(deg F · |b|)."""
    odd, relabel = F.source.algebra.odd, F._relabel
    parts: dict[tuple, dict[tuple, int]] = {}
    for mono, c in terms.items():
        b, f = [], []
        b_odd = f_odd = False
        for gid, exp in mono:
            if gid not in relabel:
                f.append((gid, exp))
                f_odd ^= odd[gid]
            else:
                s, g = relabel[gid]
                b.append((g, exp))
                c *= -s if odd[gid] and f_odd else s ** exp
                b_odd ^= odd[gid]
        fiber = tuple(f)
        if fibers is None or fiber in fibers:
            part = parts.setdefault(fiber, {})
            s, t = tuple_normalize(F.target.algebra, b) if c else (0, ())
            if s:
                part[t] = part.get(t, 0) + (-s * c if b_odd and F.degree % 2 else s * c)
    return parts


def tuple_halves(left: dict[int, int], right: dict[int, int],
                 mono: tuple) -> tuple[tuple, tuple]:
    """The state factor tuples of a square monomial's left and right copies,
    each square gid sent back by the gid maps of tensor_model."""
    side = {new: (half, g) for half, gid_map in enumerate((left, right))
            for g, new in gid_map.items()}
    halves: tuple[list, list] = ([], [])
    for gid, e in mono:
        half, g = side[gid]
        halves[half].append((g, e))
    return tuple(halves[0]), tuple(halves[1])
