"""The packed monomial kernels against the tuple kernels they replaced.

A monomial is one int with a FIELD_BITS-wide exponent field per generator
(``gca_core``).  Each packed kernel runs here beside its tuple kernel in
``oracles``, on random factor tuples with odd clashes and Koszul signs,
and with even exponents drawn up to the field's limit: where the tuple
result has an exponent past ``max_exponent``, the packed kernel raises
ModelError naming that generator; elsewhere the two agree term for term
and in term order.  The width itself is narrowed in
``test_an_exponent_past_its_field_is_a_model_error``.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branecalc import Derivation, DgaModel, GradedAlgebra, ModelError, ModuleMap, gca_core
from branecalc.brane_ops import Kunneth
from branecalc.cli import main
from branecalc.dga_models import tensor_model

from oracles import tuple_halves, tuple_leibniz, tuple_mul, tuple_unshuffle

EMAX = (1 << gca_core.FIELD_BITS - 1) - 1
# even exponents near 0 and near the field's limit
EXPONENTS = st.one_of(st.integers(0, 3), st.integers(EMAX - 3, EMAX))


def algebra(draw, name, min_size=2):
    alg = GradedAlgebra(name)
    for i, deg in enumerate(draw(st.lists(st.integers(1, 6), min_size=min_size, max_size=6))):
        alg.add_generator(f"{name}{i}", deg)
    return alg


def factors(draw, alg, gids=None):
    """A random factor tuple over gids (default all), odd exponents 0 or 1."""
    out = []
    for g in range(len(alg.odd)) if gids is None else gids:
        e = draw(st.integers(0, 1) if alg.odd[g] else EXPONENTS)
        if e:
            out.append((g, e))
    return tuple(out)


def past_limit(alg, mono):
    """The name of the first generator of mono whose exponent passes the
    field, or None."""
    return next((alg.gen(g).name for g, e in mono if e > alg.max_exponent), None)


def raises_naming(name, fn, *args):
    with pytest.raises(ModelError, match=f"generator {re.escape(repr(name))} exceeds"):
        fn(*args)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_products_match_the_merge(data):
    draw = data.draw
    alg = algebra(draw, "g")
    a, b = factors(draw, alg), factors(draw, alg)
    sign, mono = tuple_mul(alg, a, b)
    name = past_limit(alg, mono)
    if sign and name:
        raises_naming(name, alg.mul_monomials, alg.pack(a), alg.pack(b))
        raises_naming(name, alg.mul_terms, {}, {alg.pack(a): 1}, {alg.pack(b): 1})
        return
    got = alg.mul_monomials(alg.pack(a), alg.pack(b))
    assert (got[0], alg.unpack(got[1]) if got[0] else ()) == (sign, mono)
    # mul_terms over several terms: the same sums, in the merge's order
    xs = {factors(draw, alg): i + 1 for i in range(3)}
    ys = {factors(draw, alg): j - 3 for j in range(3)}
    want: dict = {}
    for x, cx in xs.items():
        for y, cy in ys.items():
            s, m = tuple_mul(alg, x, y)
            if s and past_limit(alg, m):
                return
            if s:
                want[m] = want.get(m, 0) + s * cx * cy
    acc = alg.mul_terms({}, {alg.pack(x): c for x, c in xs.items()},
                        {alg.pack(y): c for y, c in ys.items()})
    assert [(alg.unpack(m), c) for m, c in acc.items()] == list(want.items())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_leibniz_rows_match_the_tuple_rows(data):
    draw = data.draw
    alg = algebra(draw, "g")
    r = draw(st.sampled_from([1, -1, 2]))
    images = {}
    for g in alg.generators:
        basis = alg.basis(g.degree + r)
        if basis and draw(st.booleans()):
            terms = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=3, unique=True))
            images[g.gid] = alg.element({m: draw(st.integers(-3, 3).filter(bool)) for m in terms})
    d = Derivation(alg, r, images)
    for _ in range(4):
        mono = factors(draw, alg)
        want = tuple_leibniz(d, mono)
        name = next(filter(None, (past_limit(alg, m) for m in want)), None)
        if name:
            raises_naming(name, d.leibniz, alg.pack(mono))
        else:
            got = d.leibniz(alg.pack(mono))
            assert [(alg.unpack(m), c) for m, c in got.items()] == list(want.items())


@st.composite
def module_maps(draw):
    """A ModuleMap whose ρ sends each base generator to ± a generator of
    the target of its degree, in shuffled order, or to 0; two base
    generators of one degree may share their image."""
    src = algebra(draw, "s", 3)
    base = [g for g in range(len(src.odd)) if draw(st.booleans())]
    tgt = GradedAlgebra("t")
    degrees = draw(st.permutations([src.gen(g).degree for g in base]))
    for i, deg in enumerate(degrees):
        tgt.add_generator(f"t{i}", deg)
    slots = {}
    for i, deg in enumerate(degrees):
        slots.setdefault(deg, []).append(i)
    base_images = {}
    for b in base:
        choice = draw(st.sampled_from(slots[src.gen(b).degree]))
        sign = draw(st.sampled_from([1, 1, -1, 0]))
        base_images[b] = tgt.generator_element(choice) * sign
    F = ModuleMap(DgaModel(src, Derivation(src, 1, {}), tuple(base)),
                  DgaModel(tgt, Derivation(tgt, 1, {})), draw(st.integers(-3, 3)), base_images)
    return F, base


@settings(max_examples=200, deadline=None)
@given(module_maps(), st.data())
def test_unshuffle_matches_the_tuple_unshuffle(built, data):
    F, base = built
    src, tgt = F.source.algebra, F.target.algebra
    terms = {}
    for i in range(data.draw(st.integers(1, 6))):
        terms[factors(data.draw, src)] = i + 1
    want = tuple_unshuffle(F, terms)
    name = next(filter(None, (past_limit(tgt, t) for part in want.values() for t in part)), None)
    packed = {src.pack(m): c for m, c in terms.items()}
    if name:
        raises_naming(name, F._unshuffle, packed)
        return
    got = F._unshuffle(packed)
    assert ([(src.unpack(f), [(tgt.unpack(t), c) for t, c in part.items()])
             for f, part in got.items()]
            == [(f, list(part.items())) for f, part in want.items()])
    # with the fiber parts filtered, as F's values filter them
    fibers = list(want)[::2]
    got = F._unshuffle(packed, {src.pack(f) for f in fibers})
    assert [src.unpack(f) for f in got] == [f for f in want if f in fibers]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kunneth_halves_match_the_gid_maps(data):
    state_alg = algebra(data.draw, "a")
    state = DgaModel(state_alg, Derivation(state_alg, 1, {}))
    square, left, right = tensor_model(state, state)
    kun = Kunneth(state, square, left, right)
    for _ in range(5):
        mono = factors(data.draw, square.algebra)
        low, high = tuple_halves(left, right, mono)
        packed = square.algebra.pack(mono)
        assert (packed & kun.low, packed >> kun.shift) == (state_alg.pack(low),
                                                           state_alg.pack(high))


def test_an_exponent_past_its_field_is_a_model_error(monkeypatch, tmp_path, capsys):
    # 4-bit fields hold exponents up to 7; a guard bit catches the eighth
    monkeypatch.setattr(gca_core, "FIELD_BITS", 4)
    alg = GradedAlgebra("narrow")
    x = alg.add_generator("x", 2).gid
    y = alg.add_generator("y", 3).gid
    assert alg.max_exponent == 7
    x7 = alg.pack(((x, 7),))
    assert alg.unpack(alg.mul_monomials(alg.pack(((x, 3),)), alg.pack(((x, 4),)))[1]) == ((x, 7),)
    message = "the exponent of generator 'x' exceeds 7, the largest its field holds"
    for fn, *args in ((alg.mul_monomials, x7, alg.units[x]),
                      (alg.mul_terms, {}, {x7: 1}, {alg.units[x]: 2}),
                      (alg.pack, ((x, 8),)),
                      (alg.normalize, [(x, 5), (y, 1), (x, 3)])):
        with pytest.raises(ModelError, match=re.escape(message)):
            fn(*args)
    # the Leibniz rows: d(y·x^6) has the term x^2·x^6
    d = Derivation(alg, 1, {y: alg.element({alg.pack(((x, 2),)): 1})})
    assert d.leibniz(alg.pack(((x, 5), (y, 1)))) == {x7: 1}
    with pytest.raises(ModelError, match=re.escape(message)):
        d.leibniz(alg.pack(((x, 6), (y, 1))))
    # basis growth stops at x^7 and drops its half-grown tables
    assert alg.unpack(alg.basis(14)[0]) == ((x, 7),)
    with pytest.raises(ModelError, match=re.escape(message)):
        alg.basis(16)
    assert [alg.unpack(m) for m in alg.basis(15)] == [((x, 6), (y, 1))]
    # through the CLI: a located degree check first, then the field
    path = tmp_path / "m.model"
    for text, err in (("gen x 2\n", message),
                      ("gen x 2\ngen y 15\nd y = x^8\n", message),
                      ("gen x 2\ngen y 7\nd y = x^8\n",
                       "line 3, col 7: d y must be homogeneous of degree 8, got degree 16")):
        path.write_text(text)
        assert main(["cohomology", str(path), "--max-degree", "16"]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"


def test_a_deep_degree_reaches_the_real_field_limit():
    # at the real width, gen x 2 holds x^32767 at degree 65534, and degree
    # 65536 needs x^32768: the error `cohomology --max-degree 65535` exits 2 with
    alg = GradedAlgebra("deep")
    x = alg.add_generator("x", 2).gid
    top = alg.max_exponent
    assert top == (1 << gca_core.FIELD_BITS - 1) - 1 == 32767
    assert [alg.unpack(m) for m in alg.basis(2 * top)] == [((x, top),)]
    with pytest.raises(ModelError, match=re.escape(
            f"the exponent of generator 'x' exceeds {top}, the largest its field holds")):
        alg.basis(2 * (top + 1))
