from fractions import Fraction
from pathlib import Path

import pytest

from branecalc import (
    brane_coproduct_dual,
    brane_ops,
    brane_product_dual,
    make_model,
    shriek_gamma_pure,
    sphere_model,
)


def build_s3():
    return make_model([("x", 3)], name="S3")


def build_s4():
    return make_model(
        [("x", 4), ("y", 7)], {"y": {((0, 2),): Fraction(1)}}, name="S4"
    )


# S³×S⁴: generators of both parities and a nonzero differential
S3XS4 = "algebra S3xS4\ngen a 3\ngen x 4\ngen y 7\nd y = x^2\n"
# more pure minimal shapes, shared by the per-model tests: ℍP², the `ab`
# model, S⁴×S⁶, S³×S³×S³ and (S³)⁴
HP2 = "gen x 4\ngen y 11\nd y = x^3\n"
AB = "gen a 4\ngen b 6\ngen y 7\ngen z 11\nd y = a^2\nd z = b^2 + a^3\n"
S4XS6 = "gen x 4\ngen y 7\ngen u 6\ngen w 11\nd y = x^2\nd w = u^2\n"
S3_3 = "gen a 3\ngen b 3\ngen c 3\n"
S3_4 = "gen a 3\ngen b 3\ngen c 3\ngen e 3\n"
S4_RATIONAL = "algebra S4q\ngen x 4\ngen y 7\nd y = 2/3*x^2\n"
# scripts/tsv_matrix.py's a4b6-rational: its state's representatives and π
# have denominators other than 1
A4B6_RATIONAL = ("algebra A4B6q\ngen a 4\ngen b 6\ngen y 7\ngen z 11\n"
                 "d y = a^2\nd z = 1/2*b^2 - 3/5*a^3\n")
MODEL_FILES = [
    pytest.param(p.read_text(), id=p.stem)
    for p in sorted((Path(__file__).resolve().parent.parent / "models").glob("*.model"))
]
# the models of models/ plus three stdin shapes, for the per-model tests
MODEL_TEXTS = MODEL_FILES + [
    pytest.param(S3XS4, id="s3xs4"),
    # d z = x - y makes x and y cohomologous, so π sends a free column to
    # an earlier class too, not only to the one its cocycle creates
    pytest.param("gen x 4\ngen y 4\ngen z 3\nd z = x - y\n", id="linear-d"),
    # d's images have common denominator 3, so the d rows are 3·d
    pytest.param(S4_RATIONAL, id="s4-rational"),
]


def coproduct_fold(V):
    """(state, fold): the state model and the coproduct's full fold
    glue∘(γ!⊗id), built as brane_coproduct_dual builds them, k = 2.  The
    pipeline builds the fold only when ∧V has no even generator; the tests
    build it on every pure minimal V."""
    state = sphere_model(V, 3)
    return state, brane_ops._coproduct_fold(shriek_gamma_pure(V), state, 2)


def build_s3xs3():
    return make_model([("x1", 3), ("x2", 3)], name="S3xS3")


@pytest.fixture(scope="session")
def s3():
    return build_s3()


@pytest.fixture(scope="session")
def s4():
    return build_s4()


@pytest.fixture(scope="session")
def s3xs3():
    return build_s3xs3()


@pytest.fixture(scope="session")
def s3_product(s3):
    # deep enough that associativity can be checked through degree 8
    return brane_product_dual(s3, 2, max_degree=11)


@pytest.fixture(scope="session")
def s3_coproduct(s3):
    return brane_coproduct_dual(s3, 2, max_degree=12)


# Structure laws on shifted homology, as plain arithmetic on sparse tables:
# a product table maps (a, b) -> {c: coeff}, a coproduct table maps
# c -> {(a, b): coeff}, and a missing entry is zero.  Neither law carries a
# Koszul sign.  In the m-shifted grading ‖a‖ = |a| − m, μ has degree 0 and δ
# degree −(m + r), r the coproduct's shift, and r ≡ m (mod 2) on every model
# (tests/test_sign_rule.py); so δ has even degree (−2 on S³, where m = 3 and
# r = −1, and −6 on (S³)³, where r is odd), moving μ or δ past a class costs
# nothing, and the unit has degree 0, so (a1⊗a2)·(1⊗b) = a1⊗(a2·b) and
# (a⊗1)·(b1⊗b2) = (a·b1)⊗b2.  README → Sign conventions has the derivation.


def _add(acc, key, value):
    acc[key] = acc.get(key, Fraction(0)) + value


def _nonzero(vec):
    return {k: v for k, v in vec.items() if v}


def coassociative(coproduct):
    """Whether (δ⊗1)δ = (1⊗δ)δ on every class of ``coproduct``."""
    left, right = {}, {}
    for c, row in coproduct.items():
        for (a, b), co in row.items():
            for (a1, a2), co2 in coproduct.get(a, {}).items():
                _add(left, (c, (a1, a2, b)), co * co2)
            for (b1, b2), co2 in coproduct.get(b, {}).items():
                _add(right, (c, (a, b1, b2)), co * co2)
    return _nonzero(left) == _nonzero(right)


def frobenius(product, coproduct, side):
    """Whether δ(ab) = δ(a)·(1⊗b) (``side="right"``) or δ(ab) = (a⊗1)·δ(b)
    (``side="left"``) for every pair of classes."""
    classes = set(coproduct).union(*product, *product.values())
    for a in classes:
        for b in classes:
            lhs, rhs = {}, {}
            for c, co in product.get((a, b), {}).items():
                for pair, co2 in coproduct.get(c, {}).items():
                    _add(lhs, pair, co * co2)
            if side == "right":
                for (a1, a2), co in coproduct.get(a, {}).items():
                    for c, co2 in product.get((a2, b), {}).items():
                        _add(rhs, (a1, c), co * co2)
            else:
                for (b1, b2), co in coproduct.get(b, {}).items():
                    for c, co2 in product.get((a, b1), {}).items():
                        _add(rhs, (c, b2), co * co2)
            if _nonzero(lhs) != _nonzero(rhs):
                return False
    return True
