"""The pipelines' backward maps and the sections that replace their inverses.

Each pipeline turns the one backward map f of its zigzag, a surjective
quasi-isomorphism, into a forward one: a section σ with f∘σ = id
(``cohomology.section``), so H(σ) = H(f)⁻¹ and no model between the two
ends needs its cohomology.  The two maps are recorded here as the
pipelines build them, the coproduct's by the helper that builds its pair
maps, and checked against the inverting evaluation they replace.  The
product's forward arrow out of the state is the pinch
M_{S^k} → M_{S^k} ⊗_{∧V} M_{S^k}; the pinch oracle checks it, generator
for generator, against the route through the double disk
G = D ⊗_{M_{S^(k-1)}} D that it replaces: identify∘σ_glue, with the same
checks on σ_glue.
"""

from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest

from branecalc import (
    Derivation,
    DgaMorphism,
    GradedAlgebra,
    ModelError,
    Provenance,
    brane_coproduct_dual,
    brane_ops,
    brane_product_dual,
    class_vector,
    cohomology,
    cohomology_basis,
    disk_model,
    make_model,
    parse_model,
    quotient,
    relative_tensor,
    sphere_model,
)
from branecalc import _linalg as la
from branecalc.cohomology import section
from branecalc.shriek import gamma_value, shriek_gamma_pure

from conftest import (
    AB, HP2, MODEL_TEXTS, S3_3, S3_4, S3XS4, S4XS6, coproduct_fold)
from oracles import invert_on_cohomology, is_quasi_iso

TOP = 10
STAGES = ["path-model quasi-isomorphism", "disk-factor quasi-isomorphism"]
# linear-d is not minimal, so neither pipeline accepts it
ACCEPTED = [p for p in MODEL_TEXTS if p.id != "linear-d"]
MODELS = Path(__file__).resolve().parent.parent / "models"
S3, S3XS3, S4 = ((MODELS / f"{name}.model").read_text() for name in ("s3", "s3xs3", "s4"))
# S³×S⁴ with its generators listed out of degree order: d y = x² names a
# generator with a larger id, so a section must be solved in degree order
S3XS4_REORDERED = "gen y 7\ngen x 4\ngen a 3\nd y = x^2\n"
# every generator of the k = 3 models has degree ≥ 4
PINCH_CASES = [pytest.param(p.values[0], 2, id=f"{p.id}-k2") for p in ACCEPTED] + [
    pytest.param(text, 2, id=f"{name}-k2") for name, text in (
        ("s3xs4-reordered", S3XS4_REORDERED), ("hp2", HP2), ("ab", AB),
        ("s4xs6", S4XS6), ("s3^4", S3_4))] + [
    pytest.param(text, 3, id=f"{name}-k3") for name, text in (
        ("s4", S4), ("hp2", HP2), ("ab", AB), ("s4xs6", S4XS6))]


@lru_cache(maxsize=None)
def backward_maps(text):
    """{stage: (f, σ)} for every section the two pipelines build, k = 2."""
    V = parse_model(text).model
    seen = {}

    def recording(f, stage):
        seen[stage] = f, section(f, stage)
        return seen[stage][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(brane_ops, "section", recording)
        brane_product_dual(V, 2, max_degree=2)
        # the coproduct builds its fold and pair maps only when it evaluates
        # a pair, which it never does when ∧V has an even generator
        pair_maps(*coproduct_fold(V))
    return seen


def pair_maps(state, folded):
    """[to_left, to_right]: the lifts of left and right through the
    coproduct's collapse, k = 2, as brane_coproduct_dual builds them."""
    return brane_ops._collapse_lifts(state, folded.source, 2, "disk-factor quasi-isomorphism",
                                     [{None: brane_ops._IDENTIFY[h]} for h in "LR"])


def check_section(f, sigma, top=TOP):
    """σ is a chain map with f∘σ = id on generators and H(σ) = H(f)⁻¹
    through degree top."""
    assert is_quasi_iso(f, top)
    assert sigma.source is f.target and sigma.target is f.source
    assert sigma.chain_defects() == []
    for g in f.target.algebra.generators:
        e = f.target.algebra.generator_element(g.gid)
        assert f(sigma(e)) == e
    for n in range(top + 1):
        cols = [class_vector(f.source, n, sigma(rep))
                for rep in cohomology_basis(f.target, n).representatives]
        assert [list(row) for row in zip(*cols)] == invert_on_cohomology(
            f, f.source, f.target, n)


# the accepted models, shapes whose sections correct more than one
# generator's preimage, and the coproduct section of (S³)³, which corrects
# six of its nine; its source has 6 105 monomials in degree 10, so its
# classes are compared through degree 6, the products of two of its
# degree-3 generators
@pytest.mark.parametrize("text, stage, top", [
    pytest.param(text, stage, TOP, id=f"{p.id}-{stage}")
    for p in ACCEPTED + [pytest.param(text, id=name) for name, text in (
        ("hp2", HP2), ("ab", AB), ("s4xs6", S4XS6))]
    for text in p.values for stage in STAGES] + [
    pytest.param(S3_3, STAGES[1], 6, id=f"s3^3-{STAGES[1]}")])
def test_section_inverts_the_backward_map_on_cohomology(text, stage, top):
    check_section(*backward_maps(text)[stage], top)


def counted_section(f, stage):
    """(section(f, stage), the number of systems it solved)."""
    calls = []
    real = la.solve
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(la, "solve",
                   lambda rows, ncols: calls.append(ncols) or real(rows, ncols))
        sigma = section(f, stage)
    return sigma, len(calls)


# A backward map is a gluing map: it sends generators to ±generators or 0,
# so a section starts each lift from the generator preimage and solves a
# degree's system only for the generators where that preimage is not
# already a lift.
@pytest.mark.parametrize("text, stage, solves", [
    pytest.param(text, stage, solves, id=f"{name}-{stage.split('-')[0]}")
    for name, text, stage, solves in (
        ("s3", S3, STAGES[0], 0), ("s3xs3", S3XS3, STAGES[0], 0),
        ("s4", S4, STAGES[0], 1), ("s3xs4", S3XS4, STAGES[0], 1),
        ("hp2", HP2, STAGES[0], 1), ("ab", AB, STAGES[0], 2),
        ("s3", S3, STAGES[1], 2), ("s3xs3", S3XS3, STAGES[1], 4))])
def test_a_section_solves_only_where_the_preimage_is_no_lift(text, stage, solves):
    f, sigma = backward_maps(text)[stage]
    again, count = counted_section(f, stage)
    assert (again.images, count) == (sigma.images, solves)


# σ(g) = w₀ is a lift exactly when the residuals s = σ(dg) − d w₀ and
# t = g − f(w₀) are 0, and they are read over final images, so they are the
# check of an uncorrected lift; only a corrected lift is checked again at
# the end, where d is applied to σ(g) once more
@pytest.mark.parametrize("text, stage, solves", [
    pytest.param(text, stage, solves, id=f"{name}-{stage.split('-')[0]}")
    for name, text, stage, solves in (
        ("s3", S3, STAGES[0], 0), ("s3xs3", S3XS3, STAGES[0], 0),
        ("s4", S4, STAGES[0], 1), ("s3xs4", S3XS4, STAGES[0], 1),
        ("hp2", HP2, STAGES[0], 1), ("ab", AB, STAGES[0], 2),
        ("s3", S3, STAGES[1], 2), ("s3xs3", S3XS3, STAGES[1], 4))])
def test_a_section_checks_each_generator_once(text, stage, solves, monkeypatch):
    f, sigma = backward_maps(text)[stage]
    applied = []
    real = Derivation.__call__
    monkeypatch.setattr(Derivation, "__call__",
                        lambda d, e: applied.append(d) or real(d, e))
    again, count = counted_section(f, stage)
    monkeypatch.undo()
    assert (again.images, count) == (sigma.images, solves)
    generators = len(f.target.algebra.generators)
    assert sum(d is f.source.d for d in applied) == generators + solves


def test_a_corrupted_correction_fails_the_certificate_on_its_generator(monkeypatch):
    # S⁴'s product section corrects one lift, that of s2_y@R; one coordinate
    # of its solution, off by one, must fail the final check on that
    # generator alone
    f, sigma = backward_maps(S4)[STAGES[0]]
    tgt = f.target.algebra
    lifts = {g.name: sigma.images[g.gid] for g in tgt.generators}
    assert [name for name, w in lifts.items() if len(w.terms) > 1] == ["s2_y@R"]
    real = cohomology.la.solve

    def corrupted(rows, ncols):
        sol = real(rows, ncols)
        j = min(sol, default=0)
        return {**sol, j: sol.get(j, 0) + 1}

    monkeypatch.setattr(cohomology.la, "solve", corrupted)
    with pytest.raises(ModelError) as exc:
        section(f, STAGES[0])
    assert str(exc.value) == (f"{STAGES[0]}: the section is not a chain map with "
                              "f∘σ = id on generators ['s2_y@R']")


@pytest.mark.parametrize("text", [S3, S3XS3], ids=["s3", "s3xs3"])
def test_an_uncorrected_lift_is_the_first_generator_preimage(text):
    # the product's collapse sends both copies x@L and x@R of a generator x
    # to x; no lift there is corrected, so each is ± the first preimage in
    # gid order
    f, sigma = backward_maps(text)[STAGES[0]]
    src, tgt = f.source.algebra, f.target.algebra
    shared = 0
    for g in tgt.generators:
        e = tgt.generator_element(g.gid)
        first, *rest = [h for h in src.generators if f.images[h.gid] in (e, -e)]
        h = src.generator_element(first.gid)
        assert sigma.images[g.gid] == (h if f.images[first.gid] == e else -h)
        shared += bool(rest)
    assert shared == len(parse_model(text).model.algebra.generators)


def test_a_negative_generator_preimage_is_a_lift_with_its_sign():
    # a ↦ −x: σ(x) = −a, with no system solved
    source, target = make_model([("a", 3)]), make_model([("x", 3)])
    f = DgaMorphism(source, target, {0: -target.algebra.generator_element("x")})
    sigma, solves = counted_section(f, "negated")
    assert solves == 0
    assert sigma.images[0] == -source.algebra.generator_element("a")
    check_section(f, sigma)


def test_a_section_without_generator_preimages_solves_every_generator():
    # a ↦ x + y, b ↦ x − y sends no generator to ±x or ±y, so each lift is
    # the correction of w₀ = 0 alone
    source = make_model([("a", 3), ("b", 3)])
    target = make_model([("x", 3), ("y", 3)])
    x, y = map(target.algebra.generator_element, "xy")
    f = DgaMorphism(source, target, {0: x + y, 1: x - y})
    sigma, solves = counted_section(f, "sum and difference")
    assert solves == 2
    check_section(f, sigma)


@lru_cache(maxsize=None)
def product_run(text, k):
    """(op, the stages of its sections, its gluing maps, the names of the
    algebras it built) for one brane_product_dual run."""
    V = parse_model(text).model
    stages, glued, names = [], [], []
    real_gluing, real_init = brane_ops._gluing_map, GradedAlgebra.__init__

    def recording_section(f, stage):
        stages.append(stage)
        return section(f, stage)

    def recording_gluing(*args):
        glued.append(real_gluing(*args))
        return glued[-1]

    def recording_init(alg, name=""):
        names.append(name)
        real_init(alg, name)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(brane_ops, "section", recording_section)
        mp.setattr(brane_ops, "_gluing_map", recording_gluing)
        mp.setattr(GradedAlgebra, "__init__", recording_init)
        op = brane_product_dual(V, k, max_degree=2)
    return op, stages, glued, names


@pytest.mark.parametrize("text, k", PINCH_CASES)
def test_the_product_builds_one_section_and_no_disk(text, k):
    _, stages, _, names = product_run(text, k)
    assert stages == ["path-model quasi-isomorphism"]
    assert names and not any("disk[" in name for name in names)


@pytest.mark.parametrize("text, k", PINCH_CASES)
def test_the_pinch_is_identify_after_the_glue_section(text, k):
    # the route the pinch replaces: M_{S^k} ←glue G →identify
    # M_{S^k} ⊗_{∧V} M_{S^k}, with the backward arrow replaced by its section
    op, _, glued, _ = product_run(text, k)
    state = op.state
    (pinch,) = [f for f in glued if f.source is state]
    disk = disk_model(parse_model(text).model, k)
    double, _, _ = relative_tensor(disk, disk)
    glue = brane_ops._gluing_map(double, state, k, brane_ops._GLUE)
    sigma = section(glue, "double disk vs sphere identification")
    check_section(glue, sigma)
    identify = brane_ops._gluing_map(double, pinch.target, k, brane_ops._IDENTIFY)
    gen = state.algebra.generator_element
    for g in state.algebra.generators:
        assert identify(sigma(gen(g.gid))) == pinch.images[g.gid]


@pytest.mark.parametrize("text", ACCEPTED + [
    pytest.param(S3XS4_REORDERED, id="s3xs4-reordered")])
def test_the_collapsed_double_disk_is_the_glued_sphere_square(text):
    # base change of G = D ⊗_{M_{S^1}} D along M_{S^1} → ∧V, which kills
    # s¹V, is the quotient by s¹V: generator for generator, that is
    # M_{S^2} ⊗_{∧V} M_{S^2}, the model both collapse sections land in
    V = parse_model(text).model
    disk = disk_model(V, 2)
    double, _, _ = relative_tensor(disk, disk)
    collapsed, proj = quotient(
        double, [Provenance("susp", 1, g.name) for g in V.algebra.generators])
    state = sphere_model(V, 3)
    want = relative_tensor(state, state)[0].signature()
    assert collapsed.signature() == want
    proj.check_chain()
    maps = backward_maps(text)
    for stage in ("path-model quasi-isomorphism", "disk-factor quasi-isomorphism"):
        assert maps[stage][0].target.signature() == want


def eager_coproduct_table(V, degree):
    """The coproduct table with the full fold and the pair maps built up
    front and every pair evaluated, by applying the fold to the pair's
    product.  The pairs come from the state's cohomology bases."""
    state, folded = coproduct_fold(V)
    to_left, to_right = pair_maps(state, folded)
    r = folded.degree
    reps = [cohomology_basis(state, n).representatives for n in range(degree + 1)]
    table = {}
    for n in range(degree + 1):
        for da in range(n + 1):
            for (ia, ra), (ib, rb) in product(enumerate(reps[da]),
                                              enumerate(reps[n - da])):
                z = folded(to_left(ra) * to_right(rb))
                out = class_vector(state, n + r, z) if z.terms else []
                table[((da, ia), (n - da, ib))] = {
                    (n + r, i): c for i, c in enumerate(out) if c}
    return table


# The coproduct builds its fold only when ∧V has no even generator, and
# otherwise reads γ!'s degree alone (shriek.gamma_value), as glue sends
# every s¹ generator to 0.  Here the decision is checked against glue,
# restricted to γ!'s target M_{S^1}, applied to γ!'s one value Π s1_x, and
# against the full fold, both built on every model from shriek_gamma_pure;
# the recorder notes the one module map composed, the fold, when it is built.
VANISHING_CASES = ACCEPTED + [pytest.param(text, id=name) for name, text in (
    ("hp2", HP2), ("ab", AB), ("s4xs6", S4XS6))]


@pytest.mark.parametrize("text", VANISHING_CASES)
def test_the_vanishing_decision_agrees_with_the_full_fold(text, monkeypatch):
    V = parse_model(text).model
    composed = []
    real = brane_ops.compose_module
    monkeypatch.setattr(brane_ops, "compose_module",
                        lambda g, F: composed.append(real(g, F)) or composed[-1])
    op = brane_coproduct_dual(V, 2, max_degree=14)
    monkeypatch.undo()
    state, full = coproduct_fold(V)
    gamma = shriek_gamma_pure(V)
    target, r, (value,) = gamma.target, gamma.degree, gamma.images.values()
    kept = brane_ops._gluing_map(target, state, 2, brane_ops._GLUE)(value)
    assert len(composed) == bool(full.images)
    assert bool(kept.terms) == bool(full.images)
    assert r == gamma_value(V) == full.degree == op.shift
    assert op.table == eager_coproduct_table(V, 14)


# The coproduct builds its fold (γ! on its source, the disk model D, then
# the double disk, γ!⊗id and the full glue map) only when glue keeps γ!'s
# value, which it does exactly when ∧V has no even generator; otherwise it
# builds no disk[…] algebra at all, and no sphere[1](…) either: γ!'s target
# M_{S^1} is built once with the fold, and not at all without.  It builds its pair maps, the collapse
# gluing map, its section and the two identify maps, for the first pair it
# evaluates: none when the fold is not built, nor on S³ at degree 0, where
# no pair lands in a nonzero degree.  Only an evaluated pair needs a
# cohomology basis.
@pytest.mark.parametrize("text, degree, folds, disks, circles, evaluates", [
    pytest.param(text, degree, folds, disks, circles, evaluates, id=name)
    for name, text, degree, folds, disks, circles, evaluates in (
        ("s4", S4, 14, False, 0, 0, False), ("s3xs4", S3XS4, 14, False, 0, 0, False),
        ("hp2", HP2, 14, False, 0, 0, False), ("ab", AB, 14, False, 0, 0, False),
        ("s4xs6", S4XS6, 14, False, 0, 0, False),
        ("s3-d0", "gen x 3\n", 0, True, 1, 1, False),
        ("s3", "gen x 3\n", 8, True, 1, 1, True), ("s3^3", S3_3, 8, True, 1, 1, True))])
def test_the_coproduct_builds_its_pair_maps_only_to_evaluate_a_pair(
        text, degree, folds, disks, circles, evaluates, monkeypatch):
    V = parse_model(text).model
    stages, tops, tensors, shrieks, computed, algebras = [], [], [], [], [], []
    real_gluing, real_tensor = brane_ops._gluing_map, brane_ops.relative_tensor
    real_shriek, real_basis = brane_ops._shriek_tensor_id, cohomology._cohomology_basis

    def recording_section(f, stage):
        stages.append(stage)
        return section(f, stage)

    def recording_gluing(src, dst, top, t):
        tops.append(t)
        return real_gluing(src, dst, top, t)

    def recording_tensor(M, N):
        tensors.append(M)
        return real_tensor(M, N)

    def recording_shriek(F, N):
        shrieks.append(F)
        return real_shriek(F, N)

    monkeypatch.setattr(brane_ops, "section", recording_section)
    monkeypatch.setattr(brane_ops, "_gluing_map", recording_gluing)
    monkeypatch.setattr(brane_ops, "relative_tensor", recording_tensor)
    monkeypatch.setattr(brane_ops, "_shriek_tensor_id", recording_shriek)
    monkeypatch.setattr(cohomology, "_cohomology_basis",
                        lambda M, n: computed.append(M) or real_basis(M, n))
    real_init = GradedAlgebra.__init__
    monkeypatch.setattr(GradedAlgebra, "__init__",
                        lambda alg, name="": algebras.append(name) or real_init(alg, name))
    op = brane_coproduct_dual(V, 2, max_degree=degree)
    monkeypatch.undo()
    # the disk models built: the fold's one D, or none
    built = [name for name in algebras if name.startswith("disk[")]
    assert built == [f"disk[2]({V.algebra.name})"] * disks
    # γ!'s target M_{S^1}, built once with the fold
    built = [name for name in algebras if name.startswith("sphere[1](")]
    assert built == [f"sphere[1]({V.algebra.name})"] * circles
    assert stages == ["disk-factor quasi-isomorphism"] * evaluates
    # the fold's glue map, if it is built; then, if a pair is evaluated,
    # the collapse and the two identify maps
    assert tops[:folds] == [brane_ops._GLUE] * folds
    assert len(tops) == folds + 3 * evaluates
    assert (brane_ops._COLLAPSE in tops) == evaluates
    # the fold builds γ!⊗id, the double disk G = D ⊗ D and, inside γ!⊗id,
    # D ⊗ G; the pair maps build the sphere square
    assert len(shrieks) == folds
    assert [M is op.state for M in tensors] == [False] * 2 * folds + [True] * evaluates
    assert bool(computed) == evaluates
    assert all(M is op.state for M in computed)
    assert op.table == eager_coproduct_table(V, degree)
    assert any(op.table.values()) == evaluates


def test_non_minimal_models_are_rejected():
    V = parse_model(next(p.values[0] for p in MODEL_TEXTS if p.id == "linear-d")).model
    for pipeline in (brane_product_dual, brane_coproduct_dual):
        with pytest.raises(ModelError, match="minimal model"):
            pipeline(V, 2, max_degree=2)


# the coproduct on a model with an even generator computes no basis at all
@pytest.mark.parametrize("text", [S4, S3XS4, S3XS4_REORDERED, "gen x 3\n", S3_3],
                         ids=["s4", "s3xs4", "s3xs4-reordered", "s3", "s3^3"])
def test_only_the_state_model_gets_a_cohomology_basis(text, monkeypatch):
    V = parse_model(text).model
    seen = []
    real = cohomology._cohomology_basis

    def recording(M, n):
        seen.append(M)
        return real(M, n)

    monkeypatch.setattr(cohomology, "_cohomology_basis", recording)
    for pipeline in (brane_product_dual, brane_coproduct_dual):
        seen.clear()
        op = pipeline(V, 2, max_degree=10)
        evaluates = (pipeline is brane_product_dual
                     or all(g.is_odd for g in V.algebra.generators))
        assert bool(seen) == evaluates
        assert all(M is op.state for M in seen)

