import random
from fractions import Fraction

import pytest

from branecalc import (
    DgaMorphism,
    Derivation,
    ModelError,
    class_vector,
    cohomology_basis,
    disk_model,
    induced_map,
    invert_on_cohomology,
    is_quasi_iso,
    make_model,
    morphism_eps_tilde,
    parse_model,
    path_model,
    sphere_model,
)
from branecalc.cohomology import _d_rows, projection, section

from conftest import MODEL_FILES, MODEL_TEXTS, S4_RATIONAL, build_s4


def reps(M, n):
    return [repr(r) for r in cohomology_basis(M, n).representatives]


def test_odd_sphere_cohomology(s3):
    dims = [cohomology_basis(s3, n).dimension for n in range(8)]
    assert dims == [1, 0, 0, 1, 0, 0, 0, 0]
    assert reps(s3, 0) == ["1"]
    assert reps(s3, 3) == ["x"]


def test_even_sphere_cohomology(s4):
    # H(∧(x,y), dy = x²) is Q[x]/(x²): classes 1 and x only
    dims = [cohomology_basis(s4, n).dimension for n in range(15)]
    assert dims == [1, 0, 0, 0, 1] + [0] * 10


def test_product_of_spheres_cohomology(s3xs3):
    dims = [cohomology_basis(s3xs3, n).dimension for n in range(8)]
    assert dims == [1, 0, 0, 2, 0, 0, 1, 0]
    assert reps(s3xs3, 6) == ["x1*x2"]


def test_mapping_space_cohomology_is_nontrivial(s3):
    M = sphere_model(s3, 2)
    dims = [cohomology_basis(M, n).dimension for n in range(6)]
    # ∧(x, s1_x) with zero differential: free on x (deg 3) and s1_x (deg 2)
    assert dims == [1, 0, 1, 1, 1, 1]


def test_representatives_are_deterministic():
    a = build_s4()
    b = build_s4()
    for n in range(12):
        assert reps(a, n) == reps(b, n)


def test_class_vector_requires_a_cocycle(s4):
    M = disk_model(s4, 2)
    s2x = M.gen_elem("s2_x")
    with pytest.raises(ModelError):
        class_vector(M, 3, s2x)  # d(s2_x) = s1_x ≠ 0


def test_class_vector_ignores_boundaries(s4):
    M = disk_model(s4, 2)
    z = M.gen_elem("x") + M.d(M.gen_elem("s2_x") * M.gen_elem("s1_x"))
    assert class_vector(M, 4, z) == class_vector(M, 4, M.gen_elem("x"))


def test_induced_map_and_inverse_round_trip(s4):
    disk = disk_model(s4, 2)
    eps = morphism_eps_tilde(disk)
    assert is_quasi_iso(eps, 12)
    for n in range(9):
        fwd = induced_map(eps, disk, eps.target, n)
        back = invert_on_cohomology(eps, disk, eps.target, n)
        dim = cohomology_basis(eps.target, n).dimension
        if dim == 0:
            continue
        composed = [
            [
                sum(fwd[i][k] * back[k][j] for k in range(len(back)))
                for j in range(dim)
            ]
            for i in range(dim)
        ]
        assert composed == [
            [Fraction(i == j) for j in range(dim)] for i in range(dim)
        ]


def test_singular_inversion_names_degree_shape_and_rank(s3):
    zero = DgaMorphism(s3, s3, {s3.algebra.gen("x").gid: s3.algebra.zero()})
    with pytest.raises(ModelError) as exc:
        invert_on_cohomology(zero, s3, s3, 3)
    msg = str(exc.value)
    assert "H^3" in msg and "1×1" in msg and "rank 0" in msg
    assert not is_quasi_iso(zero, 3)
    # a section of it, as a zigzag's backward map, fails naming the stage
    with pytest.raises(ModelError, match=r"^x to zero: x has no lift"):
        section(zero, "x to zero")


def test_map_onto_zero_cohomology_is_not_invertible(s3):
    # x ↦ x = d(w) kills the class of x: H^3 goes from dim 1 to dim 0
    cone = make_model([("w", 2), ("x", 3)], {"w": {((1, 1),): 1}})
    f = DgaMorphism(s3, cone, {s3.algebra.gen("x").gid: cone.gen_elem("x")})
    f.check_chain()
    with pytest.raises(ModelError, match="0×1"):
        invert_on_cohomology(f, s3, cone, 3)
    assert not is_quasi_iso(f, 3)


def test_full_rank_map_of_unequal_dimensions_is_not_invertible(s3, s3xs3):
    # x ↦ x1 is injective on H^3 (rank 1) but H^3 goes from dim 1 to dim 2
    f = DgaMorphism(s3, s3xs3, {s3.algebra.gen("x").gid: s3xs3.gen_elem("x1")})
    f.check_chain()
    with pytest.raises(ModelError, match="shape 2×1, rank 1"):
        invert_on_cohomology(f, s3, s3xs3, 3)
    assert not is_quasi_iso(f, 3)


def test_cohomology_cache_follows_new_generators():
    M = make_model([("x", 3)])
    assert cohomology_basis(M, 3).dimension == 1
    M.algebra.add_generator("y", 3)
    assert cohomology_basis(M, 3).dimension == 2
    assert sorted(reps(M, 3)) == ["x", "y"]
    # the kept reduction data must index the new basis too
    h = cohomology_basis(M, 3)
    for i, rep in enumerate(h.representatives):
        assert class_vector(M, 3, rep) == [int(i == j) for j in range(2)]
    assert cohomology_basis(M, 6).dimension == 1


def test_cohomology_applies_d_once_per_monomial(s4, monkeypatch):
    M = sphere_model(s4, 2)
    leibniz, seen = Derivation.leibniz, []

    def counting_leibniz(d, mono):
        if d is M.d:
            seen.append(mono)
        return leibniz(d, mono)

    monkeypatch.setattr(Derivation, "leibniz", counting_leibniz)
    top = 14
    for n in range(top + 1):
        cohomology_basis(M, n)
    cochains = sum(len(M.algebra.basis(n)) for n in range(top + 1))
    assert len(seen) == len(set(seen)) == cochains


@pytest.mark.parametrize("build", [
    lambda V: sphere_model(V, 2), lambda V: disk_model(V, 2), path_model,
], ids=["sphere", "disk", "path"])
@pytest.mark.parametrize("text", MODEL_FILES + [
    pytest.param(S4_RATIONAL, id="s4-rational"),
])
def test_d_rows_are_den_times_the_fraction_rows_of_d(text, build):
    M = build(parse_model(text).model)
    den = M.d.den
    if text == S4_RATIONAL:
        assert den == 3
    for n in range(11):
        index = {m: i for i, m in enumerate(M.algebra.basis(n + 1))}
        for mono, row in zip(M.algebra.basis(n), _d_rows(M, n), strict=True):
            assert all(type(c) is int for c in row.values())
            d_mono = M.d(M.algebra.monomial_element(mono))
            assert row == {index[m]: d_mono.coefficient(m) * den for m in d_mono.terms}


def _pi(M, e):
    """π on an element, through cohomology.projection term by term."""
    out = {}
    for mono in e.terms:
        for i, x in projection(M, mono)[1].items():
            out[i] = out.get(i, 0) + e.coefficient(mono) * x
    return {i: x for i, x in out.items() if x}


@pytest.mark.parametrize("text", MODEL_TEXTS)
def test_projection_is_the_class_map_and_kills_coboundaries(text):
    M = sphere_model(parse_model(text).model, 3)
    rng = random.Random(text)
    for n in range(11):
        h = cohomology_basis(M, n)
        below = [M.algebra.monomial_element(m) for m in M.algebra.basis(n - 1)]
        for b in below:
            assert _pi(M, M.d(b)) == {}
        for i, rep in enumerate(h.representatives):
            assert _pi(M, rep) == {i: 1}
        for _ in range(3):
            z = M.algebra.zero()
            for e in h.representatives + [M.d(b) for b in below]:
                z = z + e * rng.randint(-3, 3)
            want = {i: c for i, c in enumerate(class_vector(M, n, z)) if c}
            assert _pi(M, z) == want
