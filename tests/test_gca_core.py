import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branecalc import Derivation, Element, GradedAlgebra, translate
from branecalc.gca_core import add_tagged

from oracles import monomials as oracle_monomials


def mixed_algebra():
    alg = GradedAlgebra("mixed")
    for nm, deg in [("a", 1), ("b", 2), ("c", 3), ("e", 2), ("f", 5)]:
        alg.add_generator(nm, deg)
    return alg


ALG = mixed_algebra()


def gen(nm):
    return ALG.generator_element(nm)


def test_odd_generators_square_to_zero():
    for nm in ("a", "c", "f"):
        assert (gen(nm) * gen(nm)).is_zero()


def test_even_generators_do_not_square_to_zero():
    sq = gen("b") * gen("b")
    assert not sq.is_zero()
    assert sq.degree() == 4


def test_degree_is_none_on_zero_and_an_error_on_a_mixed_element():
    a, b = gen("a"), gen("b")
    assert ALG.zero().degree() is None
    with pytest.raises(ValueError, match=r"^element is not homogeneous: degrees \[1, 2\]$"):
        (a + b).degree()


def test_koszul_sign_on_odd_swap():
    a, c = gen("a"), gen("c")
    assert a * c == -(c * a)
    assert not (a * c).is_zero()


def test_even_factors_commute():
    a, b = gen("a"), gen("b")
    assert a * b == b * a


def test_normalize_reorders_with_sign():
    a_gid = ALG.gen("a").gid
    c_gid = ALG.gen("c").gid
    sign, mono = ALG.normalize([(c_gid, 1), (a_gid, 1)])
    assert sign == -1
    assert ALG.unpack(mono) == ((a_gid, 1), (c_gid, 1))


def test_normalize_kills_odd_squares():
    a_gid = ALG.gen("a").gid
    sign, _ = ALG.normalize([(a_gid, 2)])
    assert sign == 0


def poincare_series(gens, top):
    """Coefficients of Π_odd (1 + t^d) · Π_even 1/(1 - t^d), up to t^top."""
    coeffs = [Fraction(0)] * (top + 1)
    coeffs[0] = Fraction(1)
    for _, deg in gens:
        if deg % 2:
            nxt = coeffs[:]
            for n in range(deg, top + 1):
                nxt[n] += coeffs[n - deg]
        else:
            nxt = coeffs[:]
            for n in range(deg, top + 1):
                nxt[n] += nxt[n - deg]
        coeffs = nxt
    return coeffs


def test_basis_counts_match_poincare_series():
    gens = [("a", 1), ("b", 2), ("c", 3), ("e", 2), ("f", 5)]
    series = poincare_series(gens, 12)
    for n in range(13):
        assert len(ALG.basis(n)) == series[n], f"degree {n}"


generator_degrees = st.lists(st.integers(1, 9), min_size=1, max_size=7)
requested_degrees = st.lists(st.integers(-1, 30), min_size=1, max_size=8)
# each mask picks an ascending gid subset, gid g when mask[g % 7]
gid_masks = st.lists(st.lists(st.booleans(), min_size=7, max_size=7), max_size=3)
added_degrees = st.lists(st.integers(1, 9), max_size=2)


@settings(max_examples=200, deadline=None)
@given(generator_degrees, requested_degrees, gid_masks, added_degrees)
def test_basis_and_monomials_match_the_recursion_oracle(degrees, requests, masks, added):
    check_against_the_recursion_oracle(degrees, requests, masks, added)


# generator degrees up to 25 against requested degrees up to 60, where most
# suffix rows T_{i+1}[m - e|g_i|] are empty; degrees from 6 keep each basis
# small enough for the oracle
sparse_generator_degrees = st.lists(st.integers(6, 25), min_size=1, max_size=5)
sparse_requested_degrees = st.lists(st.integers(-1, 60), min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(sparse_generator_degrees, sparse_requested_degrees, gid_masks,
       st.lists(st.integers(6, 25), max_size=1))
def test_sparse_bases_match_the_recursion_oracle(degrees, requests, masks, added):
    check_against_the_recursion_oracle(degrees, requests, masks, added)


def check_against_the_recursion_oracle(degrees, requests, masks, added):
    """basis(n) and monomials(gids, n) list the oracle's monomials in its
    order, for degrees asked out of order, on ascending gid subsets, and
    again after add_generator extends an algebra whose tables are filled."""
    alg = GradedAlgebra("random")
    for i, deg in enumerate(degrees):
        alg.add_generator(f"g{i}", deg)
    for extra in (None, *added):
        if extra is not None:
            alg.add_generator(f"g{len(alg.odd)}", extra)
        everything = range(len(alg.odd))
        subsets = [tuple(g for g in everything if mask[g % 7]) for mask in masks]
        for n in requests:
            assert tuple(map(alg.unpack, alg.basis(n))) == oracle_monomials(alg, everything, n)
            for gids in subsets:
                assert (tuple(map(alg.unpack, alg.monomials(gids, n)))
                        == oracle_monomials(alg, gids, n))


def test_element_arithmetic():
    a, b = gen("a"), gen("b")
    e = 2 * a + b
    assert e - b == 2 * a
    assert (e / 2).coefficient(next(iter(a.terms))) == Fraction(1)
    assert (a + b) * b == a * b + b * b


def test_the_constructor_keeps_its_own_terms():
    # a caller's dict with no zero and nothing to cancel, changed after
    # the call, changes no Element
    x, y = ALG.units[0], ALG.units[1]
    terms = {x: 1, y: 2}
    e = Element(ALG, terms)
    terms[x] = 0
    terms[ALG.units[2]] = 5
    assert e.terms == {x: 1, y: 2}


monomials = [m for n in range(8) for m in ALG.basis(n)]
elements = st.dictionaries(
    st.sampled_from(monomials), st.integers(-3, 3), max_size=4
).map(lambda d: ALG.element({m: Fraction(c) for m, c in d.items() if c}))


@settings(max_examples=60, deadline=None)
@given(elements, elements, elements)
def test_multiplication_is_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


@settings(max_examples=60, deadline=None)
@given(elements, elements, elements)
def test_multiplication_distributes(x, y, z):
    assert x * (y + z) == x * y + x * z


@settings(max_examples=60, deadline=None)
@given(elements)
def test_unit_is_neutral(x):
    assert ALG.one() * x == x
    assert x * ALG.one() == x


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(monomials), st.sampled_from(monomials))
def test_graded_commutativity_on_monomials(m1, m2):
    e1 = ALG.monomial_element(m1)
    e2 = ALG.monomial_element(m2)
    sign = -1 if (ALG.monomial_degree(m1) * ALG.monomial_degree(m2)) % 2 else 1
    assert e1 * e2 == (e2 * e1) * sign


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(monomials), st.randoms(use_true_random=False))
def test_normalize_is_idempotent_up_to_sign(mono, rng):
    word = [gid for gid, e in ALG.unpack(mono) for _ in range(e)]
    rng.shuffle(word)
    sign, out = ALG.normalize([(gid, 1) for gid in word])
    assert sign in (1, -1) and out == mono
    sign2, out2 = ALG.normalize(ALG.unpack(out))
    assert sign2 == 1 and out2 == mono


canonical = [m for n in range(13) for m in ALG.basis(n)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(canonical), st.sampled_from(canonical))
def test_mul_monomials_matches_normalize(m1, m2):
    # one product against m2's factors multiplied on one at a time; the
    # independent oracle is test_normalize_matches_the_insertion_sort
    assert ALG.mul_monomials(m1, m2) == ALG.normalize([*ALG.unpack(m1), *ALG.unpack(m2)])


def test_add_tagged_qualifies_colliding_names():
    left = GradedAlgebra("L")
    left.add_generator("x", 3)
    right = GradedAlgebra("R")
    right.add_generator("x", 3)
    right.add_generator("y", 4)
    big = GradedAlgebra()
    lmap, rmap = add_tagged(big, left.generators, right.generators)
    names = {g.name for g in big.generators}
    assert names == {"x@L", "x@R", "y"}
    assert big.gen(lmap[0]).degree == 3


def test_translate_preserves_products():
    left = GradedAlgebra("L")
    left.add_generator("u", 2)
    left.add_generator("v", 3)
    right = GradedAlgebra("R")
    right.add_generator("w", 5)
    big = GradedAlgebra()
    lmap, _ = add_tagged(big, left.generators, right.generators)
    e = left.generator_element("u") * left.generator_element("v") * 3
    t = translate(e, big, lmap)
    assert t == big.generator_element("u") * big.generator_element("v") * 3


# Element arithmetic runs on int numerators over one denominator; the
# references below work term by term on Fraction coefficients.  Coefficients
# run from small integers to denominators above 2⁷⁰.
coefficients = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-2**90, 2**90), st.integers(2**70, 2**80)),
)
rich_elements = st.dictionaries(
    st.sampled_from(monomials), coefficients, max_size=5).map(ALG.element)
# sums of odd-degree monomials: each squares to zero, its cross terms
# cancelling in pairs
odd_elements = st.dictionaries(
    st.sampled_from([m for m in monomials if ALG.monomial_degree(m) % 2]),
    coefficients, min_size=1, max_size=4).map(ALG.element)


def values(e):
    """{monomial: Fraction} of an element, after checking its canonical
    form: den > 0, nonzero int numerators, gcd(den, numerators) = 1."""
    assert type(e.den) is int and e.den > 0
    assert all(type(c) is int and c for c in e.terms.values())
    assert math.gcd(e.den, *e.terms.values()) == 1
    return {m: e.coefficient(m) for m in e.terms}


def fraction_sum(*parts):
    """Σ k·terms over the (Fraction k, term dict) in parts."""
    out = {}
    for k, terms in parts:
        for m, c in terms.items():
            out[m] = out.get(m, Fraction(0)) + k * c
    return {m: c for m, c in out.items() if c}


def fraction_product(x, y):
    """The product of two term dicts."""
    terms = {}
    for ma, ca in x.items():
        for mb, cb in y.items():
            sign, m = ALG.mul_monomials(ma, mb)
            if sign:
                terms[m] = terms.get(m, Fraction(0)) + sign * ca * cb
    return {m: c for m, c in terms.items() if c}


@settings(max_examples=80, deadline=None)
@given(rich_elements, rich_elements)
def test_product_matches_the_fraction_reference(x, y):
    assert values(x * y) == fraction_product(values(x), values(y))


@settings(max_examples=40, deadline=None)
@given(odd_elements, rich_elements)
def test_odd_squares_vanish_and_products_cancel_to_zero(x, y):
    vx = values(x)
    assert (x * x).is_zero() and fraction_product(vx, vx) == {}
    # x·y·x = ±x·x·y on each homogeneous part of y
    xy = x * y
    assert values(xy) == fraction_product(vx, values(y))
    assert (xy * x).is_zero() and fraction_product(values(xy), vx) == {}


# mul_terms on int numerators: acc gains scale·a·b in place; with same, b is
# a, so an odd a's square cancels in acc's new terms
@settings(max_examples=80, deadline=None)
@given(st.one_of(rich_elements, odd_elements), st.one_of(rich_elements, odd_elements),
       rich_elements.filter(lambda e: e.terms),
       st.integers(-4, 4).filter(lambda k: k != 1), st.booleans())
def test_mul_terms_adds_the_scaled_product_to_the_accumulator(a, b, acc, scale, same):
    b = a if same else b
    out = dict(acc.terms)
    assert ALG.mul_terms(out, a.terms, b.terms, scale) is out
    assert {m: c for m, c in out.items() if c} == fraction_sum(
        (1, acc.terms), (scale, fraction_product(a.terms, b.terms)))


@settings(max_examples=80, deadline=None)
@given(rich_elements, rich_elements)
def test_sums_and_negation_match_the_fraction_reference(x, y):
    vx, vy = values(x), values(y)
    assert values(x + y) == fraction_sum((1, vx), (1, vy))
    assert values(x - y) == fraction_sum((1, vx), (-1, vy))
    assert values(-x) == fraction_sum((-1, vx))
    zero = x - x
    assert values(zero) == {} and zero.den == 1


@settings(max_examples=80, deadline=None)
@given(rich_elements, coefficients)
def test_scalar_products_and_quotients_match_the_fraction_reference(x, c):
    vx = values(x)
    assert values(x * c) == values(c * x) == fraction_sum((c, vx))
    assert values(x * int(c)) == fraction_sum((int(c), vx))
    if c:
        assert values(x / c) == fraction_sum((1 / c, vx))


@settings(max_examples=60, deadline=None)
@given(st.one_of(elements, rich_elements),
       rich_elements.filter(lambda e: e.den > 1), st.sampled_from([3, Fraction(-2, 7)]))
def test_a_value_built_two_ways_compares_equal(x, y, c):
    assert x + y - y == x
    assert y - x + x == y
    assert (x * c) / c == x


# a copy of ALG with its generators in reverse order, so that translating
# into it reorders every monomial
REVERSED = GradedAlgebra("reversed")
for _g in reversed(ALG.generators):
    REVERSED.add_generator(_g.name, _g.degree)
TO_REVERSED = {g.gid: REVERSED.gen(g.name).gid for g in ALG.generators}


@settings(max_examples=80, deadline=None)
@given(rich_elements, rich_elements)
def test_translate_matches_the_fraction_reference(x, y):
    want = {}
    for m, c in values(x).items():
        sign, mono = REVERSED.normalize([(TO_REVERSED[g], e) for g, e in ALG.unpack(m)])
        want = fraction_sum((1, want), (sign, {mono: c}))
    assert values(translate(x, REVERSED, TO_REVERSED)) == want
    assert (translate(x * y, REVERSED, TO_REVERSED)
            == translate(x, REVERSED, TO_REVERSED) * translate(y, REVERSED, TO_REVERSED))


@st.composite
def derivations(draw):
    """A degree-r derivation of ALG with random rational images."""
    r = draw(st.sampled_from([-1, 1, 2]))
    images = {}
    for g in ALG.generators:
        basis = ALG.basis(g.degree + r)
        images[g.gid] = ALG.element(draw(st.dictionaries(
            st.sampled_from(basis), coefficients, max_size=3)) if basis else {})
    return Derivation(ALG, r, images)


def fraction_word(word):
    """The term dict of the product of generator ids in word, in order."""
    sign, mono = ALG.normalize([(g, 1) for g in word])
    return {mono: Fraction(sign)} if sign else {}


@settings(max_examples=80, deadline=None)
@given(derivations(), rich_elements)
def test_derivation_matches_the_fraction_reference(d, x):
    # d(g_1⋯g_n) = Σ_i (-1)^(r·|g_1⋯g_(i-1)|) g_1⋯g_(i-1)·d(g_i)·g_(i+1)⋯g_n
    # on the word of each monomial, one generator at a time
    parts = []
    for m, c in values(x).items():
        word = [g for g, e in ALG.unpack(m) for _ in range(e)]
        for i, g in enumerate(word):
            sign = -1 if d.degree * sum(ALG.gen(h).degree for h in word[:i]) % 2 else 1
            left = fraction_product(fraction_word(word[:i]), values(d.images[g]))
            parts.append((c * sign, fraction_product(left, fraction_word(word[i + 1:]))))
    assert values(d(x)) == fraction_sum(*parts)
