"""F ⊗ id, the shriek tensored with the identity on a relative tensor product.

The product passes through δ! ⊗ id and the coproduct's full fold through
γ! ⊗ id, each built by ``brane_ops._shriek_tensor_id`` from the shriek F
and the model N it is tensored with.  F ⊗ id is linear over everything that comes from N,
so it keeps F's own values only.  The reference here is the rule those
values must reproduce on every fiber monomial a·b of F.source ⊗_B N:
(F ⊗ id)(a·b) = F(a)·b, with F.target carried into N by provenance.
"""

from functools import lru_cache

import pytest

from branecalc import brane_ops, brane_product_dual, parse_model
from branecalc.dga_models import relative_tensor
from branecalc.gca_core import translate
from branecalc.shriek import fiber_basis

from conftest import MODEL_TEXTS, coproduct_fold

TOP = 10
# linear-d is not minimal, so neither pipeline accepts it
ACCEPTED = [p for p in MODEL_TEXTS if p.id != "linear-d"]
# δ!⊗id as the product builds it; γ!⊗id as the coproduct's full fold builds
# it, which the coproduct itself builds only when ∧V has no even generator
PIPELINES = {"delta": lambda V: brane_product_dual(V, 2, max_degree=TOP),
             "gamma": coproduct_fold}


@lru_cache(maxsize=None)
def recorded(text, stage):
    """(F, N, F ⊗ id) as the pipeline or fold of stage builds it, k = 2."""
    V = parse_model(text).model
    seen = []
    real = brane_ops._shriek_tensor_id

    def recording(F, N):
        seen.append((F, N, real(F, N)))
        return seen[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(brane_ops, "_shriek_tensor_id", recording)
        PIPELINES[stage](V)
    (record,) = seen
    return record


@pytest.mark.parametrize("stage", PIPELINES)
@pytest.mark.parametrize("text", ACCEPTED)
def test_shriek_tensor_id_keeps_one_image_per_value_of_the_shriek(text, stage):
    F, _, shriek = recorded(text, stage)
    assert len(shriek.images) == len(F.images)


@pytest.mark.parametrize("stage", PIPELINES)
@pytest.mark.parametrize("text", ACCEPTED)
def test_shriek_tensor_id_is_the_shriek_times_the_fiber_monomial(text, stage):
    F, N, shriek = recorded(text, stage)
    glued, f_gid, n_gid = relative_tensor(F.source, N)
    assert ([(g.prov, g.degree) for g in glued.algebra.generators]
            == [(g.prov, g.degree) for g in shriek.source.algebra.generators])
    to_n = {g.gid: N.algebra.gen(g.prov).gid for g in F.target.algebra.generators
            if N.algebra.has_gen(g.prov)}
    # carried by provenance, F's base images are the generators of N that
    # relative_tensor glues to F's base
    from_glued = {new: g for g, new in n_gid.items()}
    for b in F.source.base_gids:
        assert (translate(F.base_images[b], N.algebra, to_n)
                == N.algebra.generator_element(from_glued[f_gid[b]]))
    src, alg = F.source.algebra, shriek.source.algebra
    checked = 0
    for a in F.images:
        value = translate(F(src.monomial_element(a)), N.algebra, to_n)
        for d in range(TOP - src.monomial_degree(a) + 1):
            for b in fiber_basis(N, d):
                sign, mono = alg.normalize([(f_gid[g], e) for g, e in src.unpack(a)]
                                           + [(n_gid[g], e) for g, e in N.algebra.unpack(b)])
                got = shriek(alg.monomial_element(mono, sign))
                assert got == value * N.algebra.monomial_element(b)
                checked += 1
    assert checked
