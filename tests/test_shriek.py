from fractions import Fraction

import pytest

from branecalc import (
    ModelError,
    cocycle_defects,
    delta_evaluation,
    gamma_evaluation,
    gorenstein_info,
    is_pure,
    is_semi_pure,
    make_model,
    one_generator_ext_sign,
    shriek_delta_semipure,
    shriek_gamma_pure,
    transposition_sign_loop,
)


def test_gorenstein_defaults_s3(s3):
    info = gorenstein_info(s3, 2)
    assert (info.p, info.q, info.m, info.m_bar) == (0, 1, 3, -1)


def test_gorenstein_defaults_s4(s4):
    info = gorenstein_info(s4, 2)
    assert (info.p, info.q, info.m, info.m_bar) == (1, 1, 4, -2)


def test_gorenstein_override_parity(s4):
    assert gorenstein_info(s4, 2, m=6).m == 6
    with pytest.raises(ModelError):
        gorenstein_info(s4, 2, m=5)
    with pytest.raises(ModelError):
        gorenstein_info(s4, 2, m_bar=1)


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
    assert cocycle_defects(gs, 10) == []
    # γ!(s2_y) = s1_x, and γ! vanishes on monomials containing s2_x
    s2y = gs.source.algebra.gen("s2_y").gid
    assert gs(gs.source.algebra.generator_element(s2y)) == gs.target.gen_elem(
        "s1_x"
    )
    s2x = gs.source.gen_elem("s2_x")
    assert gs(s2x).is_zero()
    assert gs(s2x * gs.source.gen_elem("s2_y")).is_zero()


def test_gamma_shriek_rejects_impure_models():
    impure = make_model(
        [("a", 3), ("b", 3), ("c", 5)],
        {"c": {((0, 1), (1, 1)): Fraction(1)}},
    )
    with pytest.raises(ModelError):
        shriek_gamma_pure(impure)


def test_gamma_evaluation_is_nonzero(s3, s4):
    for V in (s3, s4):
        ev, vec, _ = gamma_evaluation(V)
        assert not ev.is_zero()
        assert any(vec)


def test_delta_shriek_leading_term_s3(s3):
    ds = shriek_delta_semipure(s3, 10)
    f1 = ds(ds.source.algebra.one())
    sq = ds.target
    assert f1 == sq.gen_elem("x@R") - sq.gen_elem("x@L")
    # powers of the suspension generator die (odd base, no correction needed)
    assert ds(ds.source.gen_elem("s1_x")).is_zero()


def test_delta_shriek_is_a_cocycle(s3, s4):
    for V, cut in ((s3, 10), (s4, 12)):
        ds = shriek_delta_semipure(V, cut)
        assert cocycle_defects(ds, cut - max(ds.degree, 0)) == []


def test_delta_shriek_leading_term_s4(s4):
    ds = shriek_delta_semipure(s4, 12)
    sq = ds.target
    lead = ds(ds.source.gen_elem("s1_x"))
    diff = lead - (sq.gen_elem("y@R") - sq.gen_elem("y@L"))
    # any correction lies in the ideal generated by y@L·y@R
    for mono in diff.terms:
        names = [sq.algebra.gen(gid).name for gid, _ in mono]
        assert "y@L" in names and "y@R" in names or diff.is_zero()


def test_delta_evaluation_is_nonzero(s3, s4):
    for V, cut in ((s3, 10), (s4, 12)):
        ev, vec, _ = delta_evaluation(V, cut)
        assert not ev.is_zero()
        assert any(vec)


def test_loop_transposition_sign(s3, s4, s3xs3):
    # (-1)^(p+q): one odd generator for S³, two generators otherwise
    assert transposition_sign_loop(s3, 10) == -1
    assert transposition_sign_loop(s4, 12) == 1
    assert transposition_sign_loop(s3xs3, 10) == 1


def test_one_generator_extension_sign_both_parities():
    assert one_generator_ext_sign(3, 2) == -1  # odd generator
    assert one_generator_ext_sign(4, 2) == -1  # even generator
