from fractions import Fraction
from pathlib import Path

import pytest

from branecalc import (
    ModelError,
    betti,
    brane_ops,
    brane_coproduct_dual,
    brane_product_dual,
    check_associativity,
    check_commutativity,
    check_frobenius,
    class_vector,
    cohomology,
    cohomology_basis,
    compose,
    dualize_to_homology,
    parse_model,
    relative_tensor,
    shriek,
    sphere_model,
    tensor_model,
)
from branecalc.brane_ops import Kunneth
from branecalc.cohomology import section
from branecalc.gca_core import translate

from conftest import (
    AB, HP2, MODEL_TEXTS, S3_3, S3_4, S3XS4, build_s3, coassociative,
    coproduct_fold, frobenius)
from oracles import coproduct_double_composite, pair_cocycle

F1 = Fraction(1)
L1, LW, LX, LXW = (0, 0), (1, 0), (3, 0), (4, 0)
MODELS = Path(__file__).resolve().parent.parent / "models"


def test_product_dual_golden_table(s3_product):
    assert s3_product.table[L1] == {(L1, LX): F1, (LX, L1): -F1}
    assert s3_product.table[LW] == {
        (L1, LXW): F1,
        (LW, LX): -F1,
        (LX, LW): -F1,
        (LXW, L1): -F1,
    }
    assert s3_product.table[LX] == {(LX, LX): -F1}
    assert s3_product.table[LXW] == {(LX, LXW): -F1, (LXW, LX): F1}


def test_coproduct_dual_golden_values(s3_coproduct):
    t = s3_coproduct.table
    assert t[(L1, L1)] == {}
    assert t[(LW, L1)] == {L1: -F1}
    assert t[(L1, LW)] == {L1: F1}
    assert t[(LW, LW)] == {LW: -F1}


def test_coproduct_dual_full_table(s3_coproduct):
    nonzero = {k: v for k, v in s3_coproduct.table.items() if v}
    assert nonzero == {
        (L1, LW): {L1: F1},
        (LW, L1): {L1: -F1},
        (LW, LW): {LW: -F1},
        (L1, LXW): {LX: -F1},
        (LW, LX): {LX: -F1},
        (LX, LW): {LX: -F1},
        (LXW, L1): {LX: F1},
        (LW, LXW): {LXW: -F1},
        (LXW, LW): {LXW: F1},
    }


def test_coproduct_requires_codimension_two(s3):
    with pytest.raises(ModelError):
        brane_coproduct_dual(s3, 3, max_degree=8)


def test_associativity_check_passes(s3_product):
    assert check_associativity(s3_product, 8).ok


def test_commutativity_checks_pass(s3_product, s3_coproduct):
    assert check_commutativity(s3_product).ok
    assert check_commutativity(s3_coproduct).ok


def test_frobenius_check_passes(s3_product, s3_coproduct):
    assert check_frobenius(s3_product, s3_coproduct, max_degree=8).ok


def _flip_one_product_sign(prod):
    table = {c: dict(row) for c, row in prod.table.items()}
    table[LW][(LW, LX)] = -table[LW][(LW, LX)]
    return prod._replace(table=table)


def _flip_one_coproduct_sign(cop):
    table = {k: dict(row) for k, row in cop.table.items()}
    table[(LW, LW)][LW] = -table[(LW, LW)][LW]
    return cop._replace(table=table)


def test_associativity_check_rejects_perturbed_table(s3_product):
    assert not check_associativity(_flip_one_product_sign(s3_product), 8).ok


def test_commutativity_check_rejects_perturbed_tables(s3_product, s3_coproduct):
    assert not check_commutativity(_flip_one_product_sign(s3_product)).ok
    table = {k: dict(row) for k, row in s3_coproduct.table.items()}
    table[(LW, L1)][L1] = -table[(LW, L1)][L1]  # breaks the (a,b) ↔ (b,a) law
    assert not check_commutativity(s3_coproduct._replace(table=table)).ok


def test_frobenius_check_rejects_perturbed_table(s3_product, s3_coproduct):
    bad = _flip_one_coproduct_sign(s3_coproduct)
    assert not check_frobenius(s3_product, bad, max_degree=8).ok


def test_homology_product_is_exterior_on_two_generators(s3_product):
    hop = dualize_to_homology(s3_product)
    t = hop.table
    # unit σ(x)∨; generators σ(1)∨ (shifted degree −3) and σ(x·s2x)∨ (degree 1)
    assert t[(LX, LX)] == {LX: F1}
    assert t[(LX, L1)] == {L1: F1} and t[(L1, LX)] == {L1: F1}
    assert t[(LX, LXW)] == {LXW: F1} and t[(LXW, LX)] == {LXW: F1}
    assert t.get((L1, L1), {}) == {}
    assert t.get((LXW, LXW), {}) == {}
    assert t[(L1, LXW)] == {LW: -F1}
    assert t[(LXW, L1)] == {LW: F1}


def test_homology_coproduct_table(s3_coproduct):
    hop = dualize_to_homology(s3_coproduct)
    assert hop.table == {
        L1: {(L1, LW): F1, (LW, L1): F1},
        LW: {(LW, LW): F1},
        LX: {(L1, LXW): F1, (LW, LX): F1, (LX, LW): F1, (LXW, L1): -F1},
        LXW: {(LW, LXW): F1, (LXW, LW): F1},
    }


def test_homology_coproduct_on_top_class_sign_is_positive(s3_coproduct):
    hop = dualize_to_homology(s3_coproduct)
    assert hop.table[LW] == {(LW, LW): F1}


def test_homology_coproduct_is_coassociative(s3_product, s3_coproduct):
    hp = dualize_to_homology(s3_product).table
    hc = dualize_to_homology(s3_coproduct).table
    assert coassociative(hc)
    assert frobenius(hp, hc, "right") and frobenius(hp, hc, "left")
    # negating the top-class entry breaks coassociativity and both Frobenius
    # forms
    alt = {c: dict(row) for c, row in hc.items()}
    alt[LW][(LW, LW)] = -alt[LW][(LW, LW)]
    assert not coassociative(alt)
    assert not frobenius(hp, alt, "right")
    assert not frobenius(hp, alt, "left")


def test_coproduct_double_composite_is_nonzero(s3_coproduct):
    composite = coproduct_double_composite(s3_coproduct)
    assert composite
    assert len(composite) == 16


def test_even_sphere_coproduct_vanishes(s4):
    cop = brane_coproduct_dual(s4, 2, max_degree=10)
    assert all(not row for row in cop.table.values())


def test_tables_are_deterministic_across_rebuilds():
    a = brane_coproduct_dual(build_s3(), 2, max_degree=8)
    b = brane_coproduct_dual(build_s3(), 2, max_degree=8)
    assert a.table == b.table


# Every model file.
TRUNCATION_CASES = [
    pytest.param(p.read_text(), id=p.stem) for p in sorted(MODELS.glob("*.model"))]
REFERENCE_DEGREE = 4


@pytest.mark.parametrize("text", TRUNCATION_CASES)
def test_truncated_tables_are_rows_of_the_reference_table(text):
    V = parse_model(text).model
    for build, degree in (
        (brane_product_dual, lambda c: c[0]),
        (brane_coproduct_dual, lambda pair: pair[0][0] + pair[1][0]),
    ):
        ref = build(V, 2, REFERENCE_DEGREE).table
        for d in range(REFERENCE_DEGREE):
            want = {key: row for key, row in ref.items() if degree(key) <= d}
            assert build(V, 2, d).table == want, (build.__name__, d)


# The Künneth helper reads pair coordinates off π⊗π and never computes the
# square's cohomology; here the square's own cohomology is the oracle.
KUNNETH_CASES = TRUNCATION_CASES + [pytest.param(S3XS4, id="s3xs4")]


def class_pairs(state, n):
    """brane_ops.class_pairs over the state's Betti numbers through degree n."""
    return brane_ops.class_pairs([betti(state, d) for d in range(n + 1)], n)


@pytest.mark.parametrize("text", KUNNETH_CASES)
def test_kunneth_coordinates_match_the_square_cohomology(text):
    state = sphere_model(parse_model(text).model, 3)
    square, left, right = tensor_model(state, state)
    kun = Kunneth(state, square, left, right)
    for n in range(11):
        labels = class_pairs(state, n)
        h = cohomology_basis(square, n)
        assert len(labels) == h.dimension
        for lab in labels:
            assert kun.coordinates(pair_cocycle(state, square, left, right, lab)) == {lab: F1}
        for j, rep in enumerate(h.representatives):
            back = square.algebra.zero()
            for lab, c in kun.coordinates(rep).items():
                back = back + pair_cocycle(state, square, left, right, lab) * c
            assert class_vector(square, n, back) == [int(i == j) for i in range(len(labels))]


def test_kunneth_projects_each_half_once(monkeypatch):
    # coordinates looks π up once per distinct half-monomial of a Kunneth
    halves = []
    real = brane_ops.projection
    monkeypatch.setattr(brane_ops, "projection",
                        lambda M, half: halves.append(half) or real(M, half))
    state = sphere_model(parse_model(S3XS4).model, 3)
    square, left, right = tensor_model(state, state)
    kun = Kunneth(state, square, left, right)
    for _ in range(2):
        for n in range(9):
            for lab in class_pairs(state, n):
                assert kun.coordinates(
                    pair_cocycle(state, square, left, right, lab)) == {lab: F1}
    assert halves and len(halves) == len(set(halves))


def test_kunneth_coordinates_require_a_cocycle():
    state = sphere_model(parse_model(S3XS4).model, 3)
    square, left, right = tensor_model(state, state)
    kun = Kunneth(state, square, left, right)
    gen = state.algebra.generator_element
    y = translate(gen("y"), square.algebra, left)  # d y = x² ≠ 0
    with pytest.raises(ModelError, match="not a cocycle"):
        kun.coordinates(y * translate(gen("a"), square.algebra, right))


def test_pipelines_never_compute_a_tensor_square_cohomology(monkeypatch):
    # records every model tensor_model builds and every model whose
    # cohomology basis is computed; the two sets must not meet
    squares, computed = [], []

    def recording_tensor_model(M, N):
        out = tensor_model(M, N)
        squares.append(out[0])
        return out

    real = cohomology._cohomology_basis
    monkeypatch.setattr(brane_ops, "tensor_model", recording_tensor_model)
    monkeypatch.setattr(shriek, "tensor_model", recording_tensor_model)
    monkeypatch.setattr(cohomology, "_cohomology_basis",
                        lambda M, n: computed.append(M) or real(M, n))
    V = parse_model(S3XS4).model
    brane_product_dual(V, 2, max_degree=6)
    brane_coproduct_dual(V, 2, max_degree=6)
    assert squares and computed
    assert not any(M is S for M in computed for S in squares)


# The coproduct reads each pair off the fiber parts of two per-class images
# and one folded module map glue∘(γ!⊗id), and never builds the tensor
# square.  The oracle is the route it replaced, built here from its pieces:
# the whole composite through M_{S^k}⊗² applied to each pair cocycle a⊗b
# (oracles.pair_cocycle), with glue applied after γ!⊗id.  linear-d is not
# minimal, so no pipeline accepts it; S³×S⁵×S⁷'s coproduct is nonzero from
# degree 10 on, and (S³)⁴'s from degree 6 on.  ℍP², ab and S⁴×S⁵ have an
# even generator, so their fold has no value.
S4 = "gen x 4\ngen y 7\nd y = x^2\n"
S3XS5XS7 = "gen a 3\ngen b 5\ngen c 7\n"
S4XS5 = "gen x 4\ngen w 5\ngen y 7\nd y = x^2\n"
ORACLE_DEGREE = 12
FOLD_DEGREE = 10
COPRODUCT_CASES = [pytest.param(p.values[0], ORACLE_DEGREE, id=p.id)
                   for p in MODEL_TEXTS if p.id != "linear-d"] + [
    pytest.param(text, ORACLE_DEGREE, id=name) for name, text in (
        ("s3xs5xs7", S3XS5XS7), ("hp2", HP2), ("ab", AB), ("s4xs5", S4XS5))] + [
    pytest.param(S3_4, 8, id="s3^4")]


def _square_route(V):
    """(state, square, left, right, to_source, γ!⊗id, glue): δ∨(a⊗b) is the
    class of glue(γ!⊗id(to_source(a⊗b))), a⊗b formed in square = M_{S^k}⊗²
    through the gid maps left and right of its inclusions, to_source the
    collapse section after identify: M_{S^k}⊗² → M_{S^k} ⊗_{∧V} M_{S^k}."""
    gamma = shriek.shriek_gamma_pure(V)
    state = sphere_model(V, 3)
    double = relative_tensor(gamma.source, gamma.source)[0]
    spheres = relative_tensor(state, state)[0]
    shriek_id = brane_ops._shriek_tensor_id(gamma, double)
    square, left, right = tensor_model(state, state)
    identify = brane_ops._gluing_map(square, spheres, 2, brane_ops._IDENTIFY)
    collapse = section(
        brane_ops._gluing_map(shriek_id.source, spheres, 2, brane_ops._COLLAPSE),
        "collapse")
    glue = brane_ops._gluing_map(double, state, 2, brane_ops._GLUE)
    return state, square, left, right, compose(collapse, identify), shriek_id, glue


@pytest.mark.parametrize("text, degree", COPRODUCT_CASES)
def test_coproduct_matches_the_pair_by_pair_route(text, degree):
    V = parse_model(text).model
    table = brane_coproduct_dual(V, 2, max_degree=degree).table
    state, square, left, right, to_source, shriek_id, glue = _square_route(V)
    r = shriek_id.degree
    want = {}
    for n in range(degree + 1):
        for pair in class_pairs(state, n):
            z = glue(shriek_id(to_source(pair_cocycle(state, square, left, right, pair))))
            out = class_vector(state, n + r, z)
            want[pair] = {(n + r, i): c for i, c in enumerate(out) if c}
    assert table == want
    if text in (S3XS5XS7, S3_4):
        assert any(table.values())


@pytest.mark.parametrize("text, degree", COPRODUCT_CASES)
def test_folded_glue_after_shriek_is_glue_applied_after_it(text, degree):
    # every monomial a·b of (γ!⊗id).source with a a fiber monomial where
    # γ!⊗id has a value and b a base monomial of degree through
    # FOLD_DEGREE (the degree, for (S³)⁴)
    *_, shriek_id, glue = _square_route(parse_model(text).model)
    folded = shriek.compose_module(glue, shriek_id)
    assert folded.source is shriek_id.source and folded.target is glue.target
    alg = shriek_id.source.algebra
    base = sorted(shriek_id.base_images)
    checked = 0
    for a in shriek_id.images:
        for d in range(min(degree, FOLD_DEGREE) + 1):
            for b in alg.monomials(base, d):
                sign, mono = alg.normalize([*alg.unpack(a), *alg.unpack(b)])
                x = alg.monomial_element(mono, sign)
                assert folded(x) == glue(shriek_id(x))
                checked += 1
    assert checked


# glue kills γ!'s value Π s1_x unless ∧V has no even generator, and
# compose_module keeps nonzero values only; the full fold is built here
# even where the coproduct skips it
@pytest.mark.parametrize("text, values", [
    pytest.param(text, values, id=name) for name, text, values in (
        ("s3", "gen x 3\n", 1), ("s3xs3", "gen a 3\ngen b 3\n", 1),
        ("s3xs5xs7", S3XS5XS7, 1), ("s4", S4, 0),
        ("s3xs4", S3XS4, 0), ("hp2", HP2, 0), ("ab", AB, 0))])
def test_the_fold_has_a_value_exactly_without_even_generators(text, values):
    V = parse_model(text).model
    folded = coproduct_fold(V)[1]
    assert len(folded.images) == values
    assert all(v.terms for v in folded.images.values())
    assert (values == 0) == any(not g.is_odd for g in V.algebra.generators)


def _sample(alg, n):
    """A sum of every degree-n monomial of alg, with distinct coefficients."""
    return alg.element({m: Fraction((-1) ** i * (i + 1), i + 2)
                        for i, m in enumerate(alg.basis(n))})


# on_product reads F(x·y) off the fiber parts of x and y; δ! and δ!⊗id have
# many values, in fiber monomials of both parities, and δ! on S³×S⁴ has odd
# degree, so every sign of the product rule is exercised.  The coproduct's
# fold, the map on_product serves, has one value and a glue that carries -1
# on the right copies.  nonzero counts the sample pairs with F(x·y) ≠ 0
@pytest.mark.parametrize("text, fold, nonzero", [
    pytest.param(S4, False, 55, id="s4"),
    pytest.param(S3XS4, False, 73, id="s3xs4"), pytest.param(AB, False, 76, id="ab"),
    pytest.param("gen x 3\n", True, 14, id="s3-fold"),
    pytest.param("gen a 3\ngen b 3\n", True, 40, id="s3xs3-fold"),
    pytest.param("gen a 3\ngen c 5\n", True, 25, id="s3xs5-fold")])
def test_on_product_is_the_map_applied_to_the_product(text, fold, nonzero):
    V = parse_model(text).model
    if fold:
        maps = ((coproduct_fold(V)[1], 8),)
    else:
        delta = shriek.shriek_delta_semipure(V)
        state = sphere_model(V, 3)
        delta_id = brane_ops._shriek_tensor_id(delta, tensor_model(state, state)[0])
        maps = ((delta, 12), (delta_id, 8))
    seen = 0
    for F, top in maps:
        assert len(F.images) > 1 or fold
        alg = F.source.algebra
        for nx in range(top + 1):
            x = _sample(alg, nx)
            parts = F.graded_parts(x)
            for ny in range(top + 1 - nx):
                y = _sample(alg, ny)
                z = F(x * y)
                assert F.on_product(parts, F.graded_parts(y), ny) == z
                seen += not z.is_zero()
    assert seen == nonzero


def test_coproduct_splits_each_class_image_once(monkeypatch):
    calls = []
    real = shriek.ModuleMap.graded_parts
    monkeypatch.setattr(shriek.ModuleMap, "graded_parts",
                        lambda F, e: calls.append(e) or real(F, e))
    brane_coproduct_dual(parse_model(S4).model, 2, max_degree=14)
    assert calls == []  # the fold has no value
    op = brane_coproduct_dual(parse_model(S3_3).model, 2, max_degree=12)
    classes = sum(cohomology_basis(op.state, n).dimension for n in range(13))
    assert 0 < len(calls) <= 2 * classes < len(op.table)
