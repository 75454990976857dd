import re
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branecalc import (
    DgaModel,
    DgaMorphism,
    Derivation,
    GradedAlgebra,
    ModelError,
    Provenance,
    compose,
    disk_model,
    is_minimal,
    make_model,
    path_model,
    quotient,
    relative_tensor,
    sphere_model,
    tensor_model,
)
from branecalc.cli import ParseError, parse_model
from branecalc.gca_core import linear_combination, translate

from conftest import (
    A4B6_RATIONAL, AB, HP2, MODEL_TEXTS, S3_3, S3_4, S4_RATIONAL, S4XS6, build_s3,
    build_s3xs3, build_s4)
from oracles import d_squared_witnesses, is_quasi_iso, morphism_phi, path_images

CORPUS = [build_s3, build_s4, build_s3xs3]
MODEL_FILES = sorted((Path(__file__).resolve().parent.parent / "models").glob("*.model"))


@pytest.mark.parametrize("build", CORPUS)
@pytest.mark.parametrize("k", [2, 3])
def test_sphere_model_square_zero(build, k):
    sphere_model(build(), k).check()


# connectivity: disk/sphere at level k needs all generator degrees ≥ k+1
DISK_CASES = [(b, 2) for b in CORPUS] + [(build_s4, 3)]


@pytest.mark.parametrize("build,k", DISK_CASES)
def test_disk_model_square_zero(build, k):
    disk_model(build(), k).check()


@pytest.mark.parametrize("build", CORPUS)
def test_path_model_square_zero(build):
    path_model(build()).check()


def test_corpus_is_minimal():
    for build in CORPUS:
        assert is_minimal(build())


@pytest.mark.parametrize("k", [2, 3, 4])
def test_sphere_fiber_degrees_and_provenance(s4, k):
    M = sphere_model(s4, k)
    for gid in M.fiber_gids:
        g = M.algebra.gen(gid)
        assert g.prov.shift == k - 1
        origin = M.algebra.gen(g.prov.origin)
        assert g.degree == origin.degree - (k - 1)
        assert g.name == f"s{k - 1}_{g.prov.origin}"


def _suspensions(V, shift):
    """The provenances of s^shift V."""
    return [Provenance("susp", shift, g.name) for g in V.algebra.generators]


def _constructions(V):
    """Each model constructor applied to V (all of whose degrees are ≥ 3)."""
    sphere, disk, path = sphere_model(V, 2), disk_model(V, 2), path_model(V)
    out = {f"sphere_model k={k}": sphere_model(V, k) for k in (1, 2, 3)}
    out.update({f"disk_model k={k}": disk_model(V, k) for k in (1, 2)})
    out["path_model"] = path
    out["tensor_model"] = tensor_model(sphere, sphere)[0]
    out["relative_tensor of disks"] = relative_tensor(disk, disk)[0]
    out["relative_tensor of path and square"] = relative_tensor(
        path, tensor_model(V, V)[0])[0]
    out["disk collapsed over V"] = quotient(disk, _suspensions(V, 1))[0]
    out["quotient"] = quotient(sphere, [g.prov for g in V.algebra.generators])[0]
    return out


@pytest.mark.parametrize("path", MODEL_FILES, ids=lambda p: p.stem)
def test_every_constructor_keys_generators_by_provenance(path):
    # a generator's provenance identifies it, and its name is the label
    # derived from that provenance
    V = parse_model(path.read_text(encoding="utf-8")).model
    for what, M in _constructions(V).items():
        gens = M.algebra.generators
        assert len({g.prov for g in gens}) == len(gens), what
        for g in gens:
            assert M.algebra.gen(g.prov) is g, (what, g)
            assert g.name == g.prov.name, (what, g)


def test_disk_differential_links_the_two_suspensions(s3):
    M = disk_model(s3, 2)
    # d(s2_x) = s1_x exactly, since dx = 0
    assert M.d(M.algebra.generator_element("s2_x")) == M.algebra.generator_element("s1_x")


def test_disk_differential_correction_term(s4):
    M = disk_model(s4, 2)
    # d(s2_y) = s1_y + (-1)^2 s2(x^2) = s1_y + 2 x·s2_x
    want = M.algebra.generator_element("s1_y") + 2 * M.algebra.generator_element("x") * M.algebra.generator_element("s2_x")
    assert M.d(M.algebra.generator_element("s2_y")) == want


def test_path_model_suspension_differential(s3):
    P = path_model(s3)
    assert P.d(P.algebra.generator_element("s1_x")) == P.algebra.generator_element("x@R") - P.algebra.generator_element("x@L")


def test_path_model_twisting_series(s4):
    P = path_model(s4)
    want = (
        P.algebra.generator_element("y@R")
        - P.algebra.generator_element("y@L")
        - P.algebra.generator_element("x@L") * P.algebra.generator_element("s1_x")
        - P.algebra.generator_element("x@R") * P.algebra.generator_element("s1_x")
    )
    assert P.d(P.algebra.generator_element("s1_y")) == want


# every models/*.model and conftest model that path_model accepts (linear-d
# is not minimal), with both rational models, s4-rational and a4b6-rational
PATH_SERIES_CASES = [p for p in MODEL_TEXTS if p.id != "linear-d"] + [
    pytest.param(text, id=name) for name, text in (
        ("hp2", HP2), ("ab", AB), ("s4xs6", S4XS6), ("s3^3", S3_3), ("s3^4", S3_4),
        ("a4b6-rational", A4B6_RATIONAL))]


@pytest.mark.parametrize("text", PATH_SERIES_CASES)
def test_the_int_twisting_series_is_the_element_series(text):
    # term for term and in term order, over the same denominator
    V = parse_model(text).model
    got, want = path_model(V).d.images, path_images(V)
    assert ({gid: (list(e.terms.items()), e.den) for gid, e in got.items()}
            == {gid: (list(e.terms.items()), e.den) for gid, e in want.items()})


@pytest.mark.parametrize("build,k", DISK_CASES)
def test_base_change_of_disk_is_next_sphere(build, k):
    # base change along φ: M_{S^(k-1)} → ∧V, which kills s^(k-1)V, is the
    # quotient by s^(k-1)V
    V = build()
    disk = disk_model(V, k)
    collapsed, _ = quotient(disk, _suspensions(V, k - 1))
    assert collapsed.signature() == sphere_model(V, k + 1).signature()


@pytest.mark.parametrize("build", CORPUS)
def test_eps_tilde_is_quasi_iso(build):
    f = morphism_phi(disk_model(build(), 2))
    assert is_quasi_iso(f, 14)


def test_phi_and_eps_tilde_are_chain_maps(s4):
    morphism_phi(sphere_model(s4, 2)).check_chain()
    morphism_phi(disk_model(s4, 3)).check_chain()


def test_relative_tensor_glues_over_the_base(s3):
    disk = disk_model(s3, 2)
    glued, inc_l, inc_r = relative_tensor(disk, disk)
    glued.check()
    names = {g.name for g in glued.algebra.generators}
    assert names == {"x", "s1_x", "s2_x@L", "s2_x@R"}
    # both inclusions restrict to the identity on the shared base
    gen, alg = disk.algebra.generator_element, glued.algebra
    assert translate(gen("x"), alg, inc_l) == alg.generator_element("x")
    assert translate(gen("s1_x"), alg, inc_r) == alg.generator_element("s1_x")


def test_relative_tensor_rejects_mismatched_bases(s3, s4):
    with pytest.raises(ModelError):
        relative_tensor(disk_model(s3, 2), disk_model(s4, 2))


def identity(M):
    return DgaMorphism(M, M, {g.gid: M.algebra.generator_element(g.gid)
                              for g in M.algebra.generators})


def y_to_zero(M):
    """x ↦ x, y ↦ 0 on S⁴: not a chain map, as it sends dy = x² to x²."""
    return DgaMorphism(M, M, {M.algebra.gen("x").gid: M.algebra.generator_element("x"),
                              M.algebra.gen("y").gid: M.algebra.zero()})


# the constructors' and maps' error paths, one rejection each
@pytest.mark.parametrize("build, message", [
    (lambda: relative_tensor(sphere_model(build_s3(), 2),
                             sphere_model(parse_model("gen x 5\n").model, 2)),
     "base generator x has mismatched degrees"),
    (lambda: relative_tensor(sphere_model(build_s4(), 2),
                             sphere_model(parse_model("gen x 4\ngen y 7\n").model, 2)),
     "relative tensor: differentials disagree on base generator y"),
    (lambda: path_model(parse_model("gen x 1\n").model),
     "path model needs all generator degrees ≥ 2"),
    (lambda: path_model(parse_model("gen y 4\ngen x 5\nd y = x\n").model),
     "path model needs a minimal input (no linear part)"),
    (lambda: sphere_model(build_s4(), 0), "k must be ≥ 1"),
    (lambda: disk_model(build_s4(), 0), "k must be ≥ 1"),
    (lambda: compose(identity(build_s4()), identity(build_s4())), "composition mismatch"),
    (lambda: y_to_zero(build_s4()).check_chain(), "not a chain map on generators: ['y']"),
], ids=["tensor-degrees", "tensor-differentials", "path-degree", "path-minimal",
        "sphere-k", "disk-k", "compose", "check-chain"])
def test_malformed_inputs_are_model_errors(build, message):
    with pytest.raises(ModelError, match=re.escape(message)):
        build()


def test_tensor_model_square_zero(s3, s4):
    T, _, _ = tensor_model(sphere_model(s3, 2), sphere_model(s4, 2))
    T.check()


def test_quotient_requires_d_stable_kernel(s3, s4):
    P = path_model(s3)
    with pytest.raises(ModelError):
        quotient(P, ["s1_x"])  # d(s1_x) = x@R - x@L escapes the ideal
    M = sphere_model(s4, 2)
    Q, proj = quotient(M, ["x", "s1_x"])
    Q.check()
    proj.check_chain()


def test_transpositions_are_involutions(s4):
    from branecalc.dga_models import loop_transposition, square_transposition

    square, _, _ = tensor_model(s4, s4)
    path = path_model(s4)
    for t in (square_transposition(square), loop_transposition(path)):
        round_trip = compose(t, t)
        for g in t.source.algebra.generators:
            e = t.source.algebra.generator_element(g.gid)
            assert round_trip(e) == e


def test_path_transposition_negates_suspensions(s3):
    from branecalc.dga_models import loop_transposition

    P = path_model(s3)
    t = loop_transposition(P)
    assert t(P.algebra.generator_element("x@L")) == P.algebra.generator_element("x@R")
    assert t(P.algebra.generator_element("s1_x")) == -P.algebra.generator_element("s1_x")
    t.check_chain()


def test_non_square_zero_differential_is_reported():
    M = make_model(
        [("a", 1), ("b", 2)],
        {"a": {((1, 1),): Fraction(1)}, "b": {((0, 1), (1, 1)): Fraction(1)}},
    )
    assert M.d_squared_witnesses() == ["a", "b"]
    with pytest.raises(ModelError):
        M.check()


def test_make_model_reads_its_terms_as_the_parser_does():
    gens, text = [("a", 3), ("b", 3), ("c", 5)], "gen a 3\ngen b 3\ngen c 5\n"
    # d c = b·a carries the Koszul sign of sorting its factors
    M = make_model(gens, {"c": {((1, 1), (0, 1)): 1}})
    assert repr(M.d.images[2]) == "-a*b"
    assert M.signature() == parse_model(text + "d c = b*a\n").model.signature()
    # the square of an odd generator is zero, so d c = a^2 stores no image
    assert make_model(gens, {"c": {((0, 2),): 1}}).d.images == {}
    assert parse_model(text + "d c = a^2\n").model.d.images == {}
    # the degree is checked: d y = x^3 has degree 12, not 8
    message = "d y must be homogeneous of degree 8, got degree 12"
    with pytest.raises(ModelError, match=re.escape(message)):
        make_model([("x", 4), ("y", 7)], {"y": {((0, 3),): 1}})
    with pytest.raises(ParseError, match=re.escape(f"line 3, col 7: {message}")):
        parse_model("gen x 4\ngen y 7\nd y = x^3\n")


# d² cancels on w only once d(u·y) and d(x·v) are summed: each is x·y
CANCELLING = "gen x 4\ngen y 4\ngen u 3\ngen v 3\ngen w 6\nd u = x\nd v = y\nd w = u*y - x*v\n"


@lru_cache(maxsize=None)
def square_zero_models() -> dict:
    """Every model file, the two models with rational d coefficients and the
    cancelling one, with each constructor applied to all but the last."""
    texts = {p.stem: p.read_text(encoding="utf-8") for p in MODEL_FILES}
    texts.update({"s4-rational": S4_RATIONAL, "a4b6-rational": A4B6_RATIONAL})
    out = {"cancelling": parse_model(CANCELLING).model}
    for name, text in texts.items():
        V = parse_model(text).model
        out[name] = V
        out.update({f"{name}: {what}": M for what, M in _constructions(V).items()})
    return out


def test_d_squared_witnesses_match_the_element_route():
    models = square_zero_models()
    assert any(M.d.den != 1 for M in models.values())
    for name, M in models.items():
        assert M.d_squared_witnesses() == d_squared_witnesses(M) == [], name
    # the cancelling model's d(u·y) and d(x·v) are each nonzero
    M = models["cancelling"]
    w = M.d.images[M.algebra.gen("w").gid]
    assert all(M.d.leibniz(m) for m in w.terms)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_d_squared_witnesses_of_a_perturbed_image_match_the_element_route(data):
    # one generator's d image plus a random combination of its degree
    models = square_zero_models()
    M = models[data.draw(st.sampled_from(sorted(
        name for name, M in models.items()
        if any(M.algebra.basis(g.degree + 1) for g in M.algebra.generators))))]
    alg = M.algebra
    g = data.draw(st.sampled_from([g for g in alg.generators if alg.basis(g.degree + 1)]))
    extra = random_element(data.draw, alg, g.degree + 1)
    images = dict(M.d.images)
    images[g.gid] = images.get(g.gid, alg.zero()) + extra
    bad = DgaModel(alg, Derivation(alg, 1, images))
    assert bad.d_squared_witnesses() == d_squared_witnesses(bad)


def random_element(draw, alg, degree):
    """A random nonzero combination of degree-`degree` monomials."""
    monos = draw(st.lists(st.sampled_from(alg.basis(degree)), min_size=1,
                          max_size=3, unique=True))
    coeffs = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
    return alg.element({m: draw(coeffs) for m in monos})


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_derivation_obeys_the_leibniz_rule(data):
    """d(g) = images[g] and d(ab) = d(a)·b + (-1)^(r|a|) a·d(b), both sides
    through Element products: these laws fix a derivation uniquely, so they
    check the monomial-wise application independently."""
    draw = data.draw
    odd = draw(st.lists(st.sampled_from([1, 3, 5]), min_size=2, max_size=3))
    even = draw(st.lists(st.sampled_from([2, 4]), min_size=1, max_size=2))
    alg = GradedAlgebra("leibniz")
    for i, deg in enumerate(draw(st.permutations(odd + even))):
        alg.add_generator(f"g{i}", deg)
    r = draw(st.sampled_from([1, -1, -2]))  # a differential, the suspensions
    images = {}
    for g in alg.generators:
        if alg.basis(g.degree + r) and draw(st.integers(0, 3)) < 3:
            images[g.gid] = random_element(draw, alg, g.degree + r)
    d = Derivation(alg, r, images)
    for g in alg.generators:
        assert d(alg.generator_element(g.gid)) == images.get(g.gid, alg.zero())
    # every monomial times every generator, then random combinations
    pairs = [(alg.monomial_element(m), alg.generator_element(g.gid))
             for n in range(7) for m in alg.basis(n) for g in alg.generators]
    degrees = st.sampled_from([n for n in range(9) if alg.basis(n)])
    for _ in range(3):
        pairs.append((random_element(draw, alg, draw(degrees)),
                      random_element(draw, alg, draw(degrees))))
    for a, b in pairs:
        sign = -1 if r * a.degree() % 2 else 1
        assert d(a * b) == d(a) * b + a * d(b) * sign


def random_algebra(draw, name):
    alg = GradedAlgebra(name)
    degrees = draw(st.lists(st.sampled_from([1, 2, 3, 4, 5]), min_size=2, max_size=4))
    for i, deg in enumerate(degrees):
        alg.add_generator(f"g{i}", deg)
    return alg


def per_factor_image(e, images, target):
    """The reference for the int kernel of algebra maps: each monomial's
    image is built as Element products from the unit, one factor at a time,
    and the images are summed through linear_combination and divided by
    e.den."""
    one = target.one()

    def image(mono):
        out = one
        for gid, exp in e.algebra.unpack(mono):
            img = images[gid]
            for _ in range(exp):
                out = out * img
            if not out.terms:
                break
        return out

    return linear_combination(target, ((c, image(m)) for m, c in e.terms.items())) / e.den


def assert_per_factor(f, e):
    """f(e) is the per-factor reference, with its terms in the same order."""
    got, want = f(e), per_factor_image(e, f.images, f.target.algebra)
    assert got == want
    assert list(got.terms) == list(want.terms)


def packed(alg, terms):
    """alg.element of the terms {Factors: coefficient}, packed."""
    return alg.element({alg.pack(m): c for m, c in terms.items()})


def reference_cases():
    """A map with fractional images and a zero image b between a and c, and
    elements with even generators raised to powers ≥ 2, a zero factor inside
    a monomial, a product c·p·q whose terms cancel to 0 ahead of a term a·c
    with nonzero terms on the same monomials, and the zero element."""
    src, tgt = GradedAlgebra("ref source"), GradedAlgebra("ref target")
    a, b, c, p, q = (src.add_generator(n, d).gid for n, d in (
        ("a", 2), ("b", 3), ("c", 2), ("p", 1), ("q", 1)))
    u, v, w = (tgt.add_generator(n, d).gid for n, d in (("u", 1), ("v", 1), ("w", 2)))
    u_plus_v = packed(tgt, {((u, 1),): 1, ((v, 1),): 1})
    images = {a: packed(tgt, {((w, 1),): Fraction(1, 2), ((u, 1), (v, 1)): Fraction(-2, 3)}),
              b: tgt.zero(),
              c: packed(tgt, {((w, 1),): 1, ((u, 1), (v, 1)): 3}),
              p: u_plus_v, q: u_plus_v}
    f = DgaMorphism(DgaModel(src, Derivation(src, 1, {})),
                    DgaModel(tgt, Derivation(tgt, 1, {})), images)
    elements = [packed(src, terms) for terms in (
        {((a, 3),): 1}, {((a, 2), (c, 2)): Fraction(3, 4)},
        {((a, 1), (b, 1), (c, 1)): 1},
        {((a, 2), (c, 1)): Fraction(1, 3), ((a, 1), (b, 1), (c, 1)): Fraction(-5, 7),
         ((c, 3),): 1, (): 2},
        {((c, 1), (p, 1), (q, 1)): 1, ((a, 1), (c, 1)): 1},
        {})]
    return f, elements


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_morphism_is_multiplicative(data):
    """f(g) = images[g], f(1) = 1 and f(ab) = f(a)·f(b), the products through
    Element products: these laws fix an algebra map uniquely, so they check
    the monomial-wise application independently.  f also equals, term for
    term and in the same order, the per-factor reference (per_factor_image),
    on every product checked, the zero element and reference_cases()."""
    draw = data.draw
    src, tgt = random_algebra(draw, "source"), random_algebra(draw, "target")
    images = {g.gid: random_element(draw, tgt, g.degree)
              if tgt.basis(g.degree) and draw(st.integers(0, 3)) < 3 else tgt.zero()
              for g in src.generators}
    f = DgaMorphism(DgaModel(src, Derivation(src, 1, {})),
                    DgaModel(tgt, Derivation(tgt, 1, {})), images)
    assert f(src.one()) == tgt.one()
    for g in src.generators:
        assert f(src.generator_element(g.gid)) == images[g.gid]
    pairs = [(src.monomial_element(m), src.generator_element(g.gid))
             for n in range(7) for m in src.basis(n) for g in src.generators]
    degrees = st.sampled_from([n for n in range(9) if src.basis(n)])
    for _ in range(3):
        pairs.append((random_element(draw, src, draw(degrees)),
                      random_element(draw, src, draw(degrees))))
    for a, b in pairs:
        assert f(a * b) == f(a) * f(b)
        assert_per_factor(f, a * b)
    assert_per_factor(f, src.zero())
    ref, elements = reference_cases()
    for e in elements:
        assert_per_factor(ref, e)


def test_morphism_without_an_image_is_a_model_error(s3):
    f = DgaMorphism(s3, s3, {})
    with pytest.raises(ModelError, match="no image for generator id"):
        f(s3.algebra.generator_element(0))
    # the chain check reads each generator's image as stored
    with pytest.raises(ModelError, match="no image for generator id 0"):
        f.chain_defects()


def test_building_a_model_freezes_its_differential():
    alg = GradedAlgebra("frozen")
    x = alg.add_generator("x", 4)
    y = alg.add_generator("y", 7)
    images = {y.gid: alg.generator_element(x.gid) * alg.generator_element(x.gid)}
    M = DgaModel(alg, Derivation(alg, 1, images))
    with pytest.raises(TypeError):
        M.d.images[x.gid] = alg.generator_element(x.gid)
    with pytest.raises(TypeError):
        del M.d.images[y.gid]
    # the dict the model was built from no longer reaches its differential
    images[x.gid] = alg.generator_element(x.gid)
    assert M.d(alg.generator_element(x.gid)).is_zero()


def test_a_derivation_is_fixed_when_built():
    alg = GradedAlgebra("fixed")
    x = alg.add_generator("x", 4)
    y = alg.add_generator("y", 7)
    images = {y.gid: packed(alg, {((x.gid, 2),): Fraction(2, 3)})}
    d = Derivation(alg, 1, images)
    assert d.den == 3
    with pytest.raises(TypeError):
        d.images[x.gid] = alg.generator_element(x.gid)
    with pytest.raises(TypeError):
        del d.images[y.gid]
    with pytest.raises(AttributeError):
        d.images = {}
    # the dict it was built from no longer reaches it
    images[x.gid] = alg.generator_element(x.gid)
    assert d(alg.generator_element(x.gid)).is_zero()
    assert d.leibniz(alg.pack(((y.gid, 1),))) == {alg.pack(((x.gid, 2),)): 2}
    assert d(alg.generator_element(y.gid)) == images[y.gid]


def test_a_morphism_is_fixed_when_built():
    src, tgt = GradedAlgebra("source"), GradedAlgebra("target")
    x = src.add_generator("x", 4)
    u = tgt.add_generator("u", 2)
    v = tgt.add_generator("v", 4)
    images = {x.gid: packed(tgt, {((u.gid, 2),): Fraction(2, 3)})}
    f = DgaMorphism(DgaModel(src, Derivation(src, 1, {})),
                    DgaModel(tgt, Derivation(tgt, 1, {})), images)
    with pytest.raises(TypeError):
        f.images[x.gid] = tgt.generator_element(v.gid)
    with pytest.raises(TypeError):
        del f.images[x.gid]
    with pytest.raises(AttributeError):
        f.images = {}
    # the dict it was built from no longer reaches it
    images[x.gid] = tgt.generator_element(v.gid)
    x2 = src.monomial_element(src.pack(((x.gid, 2),)))
    assert f(x2) == packed(tgt, {((u.gid, 4),): Fraction(4, 9)})
    assert f.images[x.gid] != images[x.gid]
