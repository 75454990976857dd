import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from branecalc import (
    ONE,
    DgaMorphism,
    Element,
    GradedAlgebra,
    ModelError,
    ModuleMap,
    brane_coproduct_dual,
    brane_ops,
    brane_product_dual,
    cocycle_defects,
    cohomology_basis,
    delta_evaluation,
    disk_model,
    is_pure,
    is_semi_pure,
    make_model,
    one_generator_ext_sign,
    parse_model,
    path_model,
    shriek,
    shriek_delta_semipure,
    shriek_gamma_pure,
    sphere_model,
    transposition_sign_loop,
)
from branecalc.shriek import compose_module

from conftest import (
    A4B6_RATIONAL, AB, HP2, MODEL_TEXTS, S3_3, S3_4, S3XS4, S4_RATIONAL, S4XS6,
    coproduct_fold)
from oracles import (
    by_fiber, certificate_degree, delta_equations, gamma_evaluation, hom_differential,
    module_map_value)

DELTA_MODELS = [p for p in MODEL_TEXTS if p.id != "linear-d"] + [
    pytest.param(AB, id="ab")]
# δ!'s values as the solve through the table degree's cutoff gave them, the
# same at table degrees 0, 8, 16 and 24: the class is fixed by the leading
# value, and the values by the echelon order of the free variables
DELTA_IMAGES = {
    "s3": {"1": "-x@L + x@R"},
    "s3xs3": {"1": "x1@L*x2@L - x1@L*x2@R + x2@L*x1@R + x1@R*x2@R"},
    "s4": {"1": "x@L + x@R", "s1_x": "-y@L + y@R"},
    "s3xs4": {"1": "-a@L*x@L - a@L*x@R + x@L*a@R + a@R*x@R",
              "s1_x": "a@L*y@L - a@L*y@R + y@L*a@R + a@R*y@R"},
    "s4-rational": {"1": "2/3*x@L + 2/3*x@R", "s1_x": "-y@L + y@R"},
    "ab": {"1": "a@L*b@L + a@L*b@R + b@L*a@R + a@R*b@R",
           "s1_a": "-b@L*y@L + b@L*y@R - y@L*b@R + b@R*y@R",
           "s1_a*s1_b": "y@L*z@L - y@L*z@R + z@L*y@R + y@R*z@R",
           "s1_b": "a@L*y@L*a@R - a@L*z@L - a@L*a@R*y@R + a@L*z@R + a@L^2*y@L"
                   " - a@L^2*y@R + y@L*a@R^2 - z@L*a@R + a@R*z@R - a@R^2*y@R"},
}


def test_purity_classification(s3, s4):
    assert is_pure(s3) and is_pure(s4)
    assert is_semi_pure(s4)
    odd_into_odd = make_model(
        [("a", 3), ("b", 3), ("c", 5)],
        {"c": {((0, 1), (1, 1)): Fraction(1)}},
    )
    assert not is_pure(odd_into_odd)


def test_gamma_shriek_is_a_cocycle(s4):
    gs = shriek_gamma_pure(s4)
    assert cocycle_defects(gs) == []
    # γ!(s2_y) = s1_x, and γ! vanishes on monomials containing s2_x
    s2y = gs.source.algebra.gen("s2_y").gid
    assert gs(gs.source.algebra.generator_element(s2y)) == gs.target.algebra.generator_element(
        "s1_x"
    )
    s2x = gs.source.algebra.generator_element("s2_x")
    assert gs(s2x).is_zero()
    assert gs(s2x * gs.source.algebra.generator_element("s2_y")).is_zero()


def test_gamma_shriek_rejects_impure_models():
    impure = make_model(
        [("a", 3), ("b", 3), ("c", 5)],
        {"c": {((0, 1), (1, 1)): Fraction(1)}},
    )
    with pytest.raises(ModelError):
        shriek_gamma_pure(impure)


# scripts/tsv_matrix.py's REJECTED name clashes: with an even generator,
# with two clashes of which s1_x is the first in V's order, and without
@pytest.mark.parametrize("text", [
    "gen x 4\ngen s1_x 7\nd s1_x = x^2\n",
    "gen x 4\ngen y 7\ngen s1_y 6\ngen s1_x 3\nd y = x^2\n",
    "gen x 3\ngen s1_x 5\n"])
def test_gamma_value_raises_the_clash_that_building_the_circle_model_raises(
        text, monkeypatch):
    V = parse_model(text).model
    with pytest.raises(ModelError) as built:
        sphere_model(V, 2)
    algebras = []
    real = GradedAlgebra.__init__
    monkeypatch.setattr(GradedAlgebra, "__init__",
                        lambda alg, name="": algebras.append(name) or real(alg, name))
    with pytest.raises(ModelError) as read:
        shriek.gamma_value(V)
    assert str(read.value) == str(built.value)
    assert str(read.value).startswith("generator name 's1_x' (derived from 'x') collides")
    assert algebras == []  # nothing is built


def test_gamma_evaluation_is_nonzero(s3, s4):
    for V in (s3, s4):
        ev, vec, _ = gamma_evaluation(V)
        assert not ev.is_zero()
        assert any(vec)


def test_delta_shriek_leading_term_s3(s3):
    ds = shriek_delta_semipure(s3)
    f1 = ds(ds.source.algebra.one())
    sq = ds.target
    assert f1 == sq.algebra.generator_element("x@R") - sq.algebra.generator_element("x@L")
    # powers of the suspension generator die (odd base, no correction needed)
    assert ds(ds.source.algebra.generator_element("s1_x")).is_zero()


def test_delta_shriek_is_a_cocycle(s3, s4):
    for V in (s3, s4):
        ds = shriek_delta_semipure(V)
        assert cocycle_defects(ds) == []


def test_delta_shriek_leading_term_s4(s4):
    ds = shriek_delta_semipure(s4)
    sq = ds.target
    lead = ds(ds.source.algebra.generator_element("s1_x"))
    diff = lead - (sq.algebra.generator_element("y@R") - sq.algebra.generator_element("y@L"))
    # any correction lies in the ideal generated by y@L·y@R
    for mono in diff.terms:
        names = [sq.algebra.gen(gid).name for gid, _ in mono]
        assert "y@L" in names and "y@R" in names or diff.is_zero()


def test_delta_evaluation_is_nonzero(s3, s4):
    for V in (s3, s4):
        ev, vec, _ = delta_evaluation(V)
        assert not ev.is_zero()
        assert any(vec)


def test_pairing_rejects_a_cycle_that_base_change_leaves_open(s3):
    # d(s1_x) = x@R - x@L, and x@R survives in ∧V/(V^even)
    ds = shriek_delta_semipure(s3)
    _, to_q = shriek._square_to_quotient(ds.target)
    with pytest.raises(ModelError, match="not a cocycle after base change"):
        shriek.evaluation_pairing(ds, ds.source.algebra.generator_element("s1_x"), to_q)


def test_pairing_rejects_a_base_action_that_is_not_a_chain_map(s4):
    # x@R ↦ 0 and every other generator fixed: ρ(d y@R) = 0, but
    # d ρ(y@R) = x@R²
    ds = shriek_delta_semipure(s4)
    sq = ds.target
    images = {g.gid: sq.algebra.generator_element(g.gid) for g in sq.algebra.generators}
    images[sq.algebra.gen("x@R").gid] = sq.algebra.zero()
    to_q = DgaMorphism(sq, sq, images)
    with pytest.raises(ModelError, match="not a chain map on y@R"):
        shriek.evaluation_pairing(ds, ds.source.algebra.generator_element("s1_x"), to_q)


def test_loop_transposition_sign(s3, s4, s3xs3):
    # (-1)^(p+q): one odd generator for S³, two generators for S⁴ and S³×S³,
    # four for the sphere model of S⁴, whose suspensions s1_x, s1_y come
    # into the path model tagged L and R
    assert transposition_sign_loop(s3) == -1
    assert transposition_sign_loop(s4) == 1
    assert transposition_sign_loop(s3xs3) == 1
    assert transposition_sign_loop(sphere_model(s4, 2)) == 1


def test_one_generator_extension_sign_both_parities():
    assert one_generator_ext_sign(3, 2) == -1  # odd generator
    assert one_generator_ext_sign(4, 2) == -1  # even generator


def test_certificate_names_the_perturbed_value(s4):
    # S⁴ has an even generator, so δ! has a value on s1_x beside the one on
    # 1; doubling either one alone breaks D(δ!) = 0
    ds = shriek_delta_semipure(s4)
    s1_x = ds.source.algebra.gen("s1_x").gid
    lead = ds.source.algebra.pack(((s1_x, 1),))
    bad = ModuleMap(ds.source, ds.target, ds.degree, ds.base_images,
                    {**ds.images, lead: ds.images[lead] * 2})
    defects = cocycle_defects(bad)
    assert defects[0] == "s1_x"
    # the check through L + top finds every defect the full check finds
    full = hom_differential(bad, 28).images
    alg = bad.source.algebra
    assert defects == [alg.monomial_string(m) for m in sorted(full, key=alg.unpack)]


def test_a_map_with_no_values_is_a_cocycle(s3):
    ds = shriek_delta_semipure(s3)
    assert cocycle_defects(ModuleMap(ds.source, ds.target, ds.degree, ds.base_images, {})) == []


@lru_cache(maxsize=None)
def solved_delta(text):
    return shriek_delta_semipure(parse_model(text).model)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_int_certificate_finds_what_the_element_route_finds(data):
    # one δ! value perturbed, by a rational multiple or by an added target
    # monomial of its degree: the certificate lists, sorted, the fiber
    # monomials on which the Element route's D(δ!) is nonzero through L + top
    text = data.draw(st.sampled_from([p.values[0] for p in DELTA_MODELS]))
    ds = solved_delta(text)
    mono = data.draw(st.sampled_from(sorted(ds.images)))
    value = ds.images[mono]
    scalar = Fraction(data.draw(st.integers(-5, 5).filter(bool)), data.draw(st.integers(1, 4)))
    if data.draw(st.booleans()):
        value = value * scalar
    else:
        sq = ds.target.algebra
        t = data.draw(st.sampled_from(sq.basis(value.degree())))
        value = value + sq.monomial_element(t, scalar)
    bad = ModuleMap(ds.source, ds.target, ds.degree, ds.base_images,
                    {**ds.images, mono: value})
    full = hom_differential(bad, certificate_degree(bad)).images
    alg = bad.source.algebra
    assert cocycle_defects(bad) == [alg.monomial_string(m) for m in sorted(full, key=alg.unpack)]


def test_a_failed_certificate_raises_and_names_the_defect(s4, monkeypatch):
    # a solve that doubles every solved value doubles δ!(1) and leaves the
    # prescribed δ!(s1_x), so D(δ!) ≠ 0 first on s1_x
    solve = shriek.la.solve

    def doubled(rows, n_vars):
        return {j: 2 * c for j, c in solve(rows, n_vars).items()}

    monkeypatch.setattr(shriek.la, "solve", doubled)
    with pytest.raises(ModelError, match=r"D\(δ!\) ≠ 0 on s1_x$"):
        shriek_delta_semipure(s4)


@pytest.mark.parametrize("text", DELTA_MODELS)
def test_delta_is_a_cocycle_by_the_full_check(text):
    ds = shriek_delta_semipure(parse_model(text).model)
    assert hom_differential(ds, 28).images == {}


@pytest.mark.parametrize("text", DELTA_MODELS)
def test_delta_values_match_the_recorded_solve(text, request):
    ds = shriek_delta_semipure(parse_model(text).model)
    mono = ds.source.algebra.monomial_string
    got = {mono(m): repr(v) for m, v in ds.images.items()}
    assert got == DELTA_IMAGES[request.node.callspec.id]


# ---------------------------------------------------------------------------
# fiber monomials


# the stdin models of ROADMAP.md that DELTA_MODELS does not hold
STDIN_MODELS = [
    pytest.param(S3_3, id="s3xs3xs3"),
    pytest.param(S3_4, id="s3^4"),
    pytest.param("gen a 3\ngen b 5\ngen c 7\n", id="s3xs5xs7"),
    pytest.param("gen x 4\ngen w 6\ngen y 7\ngen z 11\nd y = x^2\nd z = w^2\n",
                 id="s4xs6"),
    pytest.param(HP2, id="hp2"),
]
# the most monomials the reference filter may enumerate on one model
FILTER_BUDGET = 60_000


def semifree_models(text: str) -> dict:
    """V's path and disk models and the sources of δ!⊗id and γ!⊗id as the
    k = 2 product and the coproduct's full fold build them."""
    V = parse_model(text).model
    seen = []
    real = brane_ops._shriek_tensor_id

    def recording(F, N):
        seen.append(real(F, N))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(brane_ops, "_shriek_tensor_id", recording)
        brane_product_dual(V, 2, max_degree=0)
        coproduct_fold(V)
    delta_id, gamma_id = seen
    return {"path": path_model(V), "disk": disk_model(V, 2),
            "δ!⊗id": delta_id.source, "γ!⊗id": gamma_id.source}


@pytest.mark.parametrize("text", DELTA_MODELS + STDIN_MODELS)
def test_fiber_basis_is_the_filtered_basis(text):
    # the reference is the filter fiber_basis replaced: the monomials of
    # basis(n) with no base factor, in basis order (δ!'s equations follow
    # it).  Through degree 20, or as far as the whole basis the filter
    # enumerates stays within FILTER_BUDGET: the δ!⊗id and γ!⊗id sources
    # stop at degrees 15 and 13 on (S³)³ and at 10 and 8 on (S³)⁴
    reached = {}
    for kind, M in semifree_models(text).items():
        base = set(M.base_gids)
        enumerated = 0
        for n in range(21):
            full = M.algebra.basis(n)
            enumerated += len(full)
            if enumerated > FILTER_BUDGET:
                break
            want = tuple(m for m in full if all(g not in base for g, _ in M.algebra.unpack(m)))
            assert shriek.fiber_basis(M, n) == want, (kind, n)
            reached[kind] = n
    assert reached["path"] == reached["disk"] == 20
    assert min(reached.values()) >= 8, reached


# ---------------------------------------------------------------------------
# ρ as a relabelling


# the source degrees on which the unshuffle is compared with by_fiber
RHO_TOP = 8


def built_module_maps(text: str) -> list:
    """Every ModuleMap built by the k = 2 product, the coproduct, the
    coproduct's full fold and δ!'s evaluation pairing on V: δ!, δ!⊗id, γ!,
    γ!⊗id and the fold, whose glue carries -1 on the right copies; and
    D(δ!) through L + top as oracles.hom_differential tabulates it, the
    map whose vanishing δ!'s certificate checks."""
    V = parse_model(text).model
    seen = []
    real = ModuleMap.__new__

    def recording(cls, *args):
        seen.append(real(cls, *args))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ModuleMap, "__new__", recording)
        brane_product_dual(V, 2, max_degree=RHO_TOP)
        brane_coproduct_dual(V, 2, max_degree=RHO_TOP)
        coproduct_fold(V)
        delta_evaluation(V)
    # the product's δ!: the first map out of a path model with values
    delta = next(F for F in seen if F.images and F.source.algebra.name.startswith("path("))
    return seen + [hom_differential(delta, certificate_degree(delta))]


def unshuffled(F, e, fibers=None) -> dict:
    """F._unshuffle's parts of e, each wrapped as an Element over e.den."""
    return {f: Element(F.target.algebra, b, e.den)
            for f, b in F._unshuffle(e.terms, fibers).items()}


def assert_by_fiber_matches_the_reference(F, rng) -> int:
    """F._unshuffle against oracles.by_fiber, with and without the images
    as the fiber filter, on every source monomial of degree ≤ RHO_TOP and
    on one rational combination of each degree; returns the zero values."""
    alg = F.source.algebra
    zeros = 0
    for n in range(RHO_TOP + 1):
        monos = alg.basis(n)
        elements = [alg.monomial_element(m) for m in monos]
        elements.append(alg.element(
            {m: Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 6)) for m in monos}))
        for e in elements:
            got = unshuffled(F, e)
            assert got == by_fiber(F, e)
            assert unshuffled(F, e, F.images) == by_fiber(F, e, F.images)
            zeros += sum(v.is_zero() for v in got.values())
    return zeros


@pytest.mark.parametrize("text", DELTA_MODELS)
def test_by_fiber_relabels_as_the_algebra_map_does(text):
    maps = built_module_maps(text)
    rng = random.Random(text)
    for F in maps:
        assert_by_fiber_matches_the_reference(F, rng)
    signs = {c for F in maps for c, _ in F._relabel.values()}
    assert signs == {-1, 0, 1}  # _GLUE's -1, and the base images glue kills
    assert any(F.degree == F2.degree + 1 and F.source is F2.source
               for F in maps for F2 in maps)  # D(δ!)


def test_by_fiber_gives_zero_where_two_odd_generators_meet():
    # δ! on S³ composed with the multiplication ∧V⊗² → ∧V: x@L and x@R both
    # go to x, so the base monomial x@L·x@R goes to x·x = 0
    V = parse_model("gen x 3\n").model
    delta = shriek_delta_semipure(V)
    mult = DgaMorphism(delta.target, V, {
        g.gid: V.algebra.generator_element(g.prov.origin)
        for g in delta.target.algebra.generators})
    F = compose_module(mult, delta)
    assert sorted(c for c, _ in F._relabel.values()) == [1, 1]
    assert len({g for _, g in F._relabel.values()}) == 1
    assert assert_by_fiber_matches_the_reference(F, random.Random(3)) > 0
    src = F.source.algebra
    both = src.monomial_element(src.pack(tuple((b, 1) for b in sorted(F.base_images))))
    assert unshuffled(F, both) == {ONE: V.algebra.zero()}


def test_a_module_map_composes_only_with_a_map_out_of_its_target():
    V, W = (parse_model("gen x 3\n").model for _ in range(2))
    g = DgaMorphism(W, W, {0: W.algebra.generator_element(0)})
    with pytest.raises(ModelError, match="composition mismatch"):
        compose_module(g, ModuleMap(V, V, 0, {}, {}))


@pytest.mark.parametrize("image", ["x + y", "2*x", "x/2", "x^2", "x*y"])
def test_a_base_image_that_is_not_a_relabelling_is_rejected(image):
    V = parse_model("gen x 4\ngen y 4\n").model
    x, y = (V.algebra.generator_element(n) for n in "xy")
    value = {"x + y": x + y, "2*x": x * 2, "x/2": x * Fraction(1, 2),
             "x^2": x * x, "x*y": x * y}[image]
    F = ModuleMap(V, V, 0, {0: value, 1: y}, {ONE: V.algebra.one()})
    with pytest.raises(ModelError, match=r"base image of x is .* not ± one generator"):
        F.graded_parts(V.algebra.one())


# ---------------------------------------------------------------------------
# module maps and δ!'s equations on int terms


KERNEL_CASES = [pytest.param(p.values[0], id=p.id) for p in MODEL_TEXTS
                if p.id in ("s3", "s4", "s3xs3")] + [
    pytest.param(text, id=name) for name, text in (
        ("s3xs4", S3XS4), ("hp2", HP2), ("ab", AB), ("s4xs6", S4XS6))]
RATIONAL_CASES = [pytest.param(S4_RATIONAL, id="s4-rational"),
                  pytest.param(A4B6_RATIONAL, id="a4b6-rational")]


@lru_cache(maxsize=None)
def product_maps(text):
    """(δ!, δ!⊗id, σ∘pinch, the state) as the k = 2 product builds them."""
    V = parse_model(text).model
    seen = {}
    real_shriek, real_compose = brane_ops._shriek_tensor_id, brane_ops.compose

    def recording_shriek(F, N):
        seen["delta"], seen["shriek"] = F, real_shriek(F, N)
        return seen["shriek"]

    def recording_compose(g, f):
        seen["to_path"] = real_compose(g, f)
        return seen["to_path"]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(brane_ops, "_shriek_tensor_id", recording_shriek)
        mp.setattr(brane_ops, "compose", recording_compose)
        op = brane_product_dual(V, 2, max_degree=0)
    return seen["delta"], seen["shriek"], seen["to_path"], op.state


def assert_the_element_route(F, e) -> Element:
    """F(e), checked field for field against oracles.module_map_value."""
    got, want = F(e), module_map_value(F, e)
    assert (got.terms, got.den) == (want.terms, want.den)
    return got


@pytest.mark.parametrize("text", KERNEL_CASES + RATIONAL_CASES)
def test_shriek_tensor_id_on_each_state_class_is_the_element_route(text):
    # δ!⊗id of σ∘pinch of every state representative through degree 10,
    # the values the product reads its table from
    _, shriek_id, to_path, state = product_maps(text)
    nonzero = 0
    for n in range(11):
        for rep in cohomology_basis(state, n).representatives:
            nonzero += bool(assert_the_element_route(shriek_id, to_path(rep)).terms)
    assert nonzero


@pytest.mark.parametrize("text", KERNEL_CASES + RATIONAL_CASES)
def test_delta_on_each_fiber_monomial_is_the_element_route(text):
    # through L + top, the degrees cocycle_defects evaluates δ! on
    delta = product_maps(text)[0]
    alg = delta.source.algebra
    checked = 0
    for n in range(certificate_degree(delta) + 1):
        for mono in shriek.fiber_basis(delta.source, n):
            assert_the_element_route(delta, alg.monomial_element(mono))
            checked += 1
    assert checked > len(delta.images)


@lru_cache(maxsize=None)
def every_module_map(text):
    return [F for F in built_module_maps(text) if F.images]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_a_module_map_on_random_int_combinations_is_the_element_route(data):
    # Σ c·mono / den with den ≠ 1, over monomials of one degree, most of
    # them with a fiber part where F has a value; the maps are every one the
    # product, the coproduct and its full fold build, so ρ's signs ±1 and 0
    # all occur
    F = data.draw(st.sampled_from(every_module_map(
        data.draw(st.sampled_from([S3_3, S4_RATIONAL, AB, S3XS4])))))
    alg, base = F.source.algebra, set(F.base_images)
    n = data.draw(st.integers(0, 10))
    keyed = [m for m in alg.basis(n)
             if alg.pack(tuple((g, e) for g, e in alg.unpack(m) if g not in base)) in F.images]
    assume(keyed)
    monos = data.draw(st.lists(st.sampled_from(keyed), min_size=1, max_size=6, unique=True))
    monos += data.draw(st.lists(st.sampled_from(alg.basis(n)), max_size=2))
    e = Element(alg, {m: data.draw(st.integers(-9, 9).filter(bool)) for m in monos},
                data.draw(st.integers(2, 12)))
    assume(e.den != 1)
    assert_the_element_route(F, e)


# on S³ and S³×S³, which have no even generator, the system is empty:
# δ! is its leading value Π_j (1⊗y_j - y_j⊗1) on 1
NONEMPTY_SYSTEMS = {"s4", "s3xs4", "hp2", "ab", "s4xs6", "s4-rational", "a4b6-rational"}


@pytest.mark.parametrize("text", KERNEL_CASES + RATIONAL_CASES)
def test_delta_solves_the_element_route_equations(text, monkeypatch, request):
    V = parse_model(text).model
    seen = []
    real = shriek.la.solve
    monkeypatch.setattr(shriek.la, "solve",
                        lambda rows, ncols: seen.append((rows, ncols)) or real(rows, ncols))
    delta = shriek_delta_semipure(V)
    monkeypatch.undo()
    rows, n_vars, values = delta_equations(V)
    assert seen == [(rows, n_vars)]  # row for row, in order
    assert bool(rows) == (request.node.callspec.id in NONEMPTY_SYSTEMS)
    # the oracle builds its own path model and square, with the same gids
    assert ({m: (v.terms, v.den) for m, v in delta.images.items()}
            == {m: (v.terms, v.den) for m, v in values.items()})
