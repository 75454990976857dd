"""The pipelines' backward maps and the sections that replace their inverses.

Each pipeline turns a backward map f of its zigzag, a surjective
quasi-isomorphism, into a forward one: a section σ with f∘σ = id
(``cohomology.section``), so H(σ) = H(f)⁻¹ and no model between the two
ends needs its cohomology.  The maps are recorded here as the pipelines
build them and checked against the inverting evaluation they replace.
"""

from functools import lru_cache
from pathlib import Path

import pytest

from branecalc import (
    ModelError,
    Provenance,
    brane_coproduct_dual,
    brane_ops,
    brane_product_dual,
    class_vector,
    cohomology,
    cohomology_basis,
    invert_on_cohomology,
    disk_model,
    is_quasi_iso,
    parse_model,
    quotient,
    relative_tensor,
    sphere_model,
)
from branecalc.cohomology import section

from conftest import MODEL_TEXTS, S3XS4

TOP = 10
STAGES = ["double disk vs sphere identification", "path-model quasi-isomorphism",
          "disk-factor quasi-isomorphism"]
# linear-d is not minimal, so neither pipeline accepts it
ACCEPTED = [p for p in MODEL_TEXTS if p.id != "linear-d"]
S4 = (Path(__file__).resolve().parent.parent / "models" / "s4.model").read_text()
# S³×S⁴ with its generators listed out of degree order: d y = x² names a
# generator with a larger id, so a section must be solved in degree order
S3XS4_REORDERED = "gen y 7\ngen x 4\ngen a 3\nd y = x^2\n"


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
        brane_coproduct_dual(V, 2, max_degree=2)
    return seen


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("text", ACCEPTED)
def test_section_inverts_the_backward_map_on_cohomology(text, stage):
    f, sigma = backward_maps(text)[stage]
    assert is_quasi_iso(f, TOP)
    assert sigma.source is f.target and sigma.target is f.source
    assert sigma.chain_defects() == []
    for g in f.target.algebra.generators:
        e = f.target.algebra.generator_element(g.gid)
        assert f(sigma(e)) == e
    for n in range(TOP + 1):
        cols = [class_vector(f.source, n, sigma(rep))
                for rep in cohomology_basis(f.target, n).representatives]
        assert [list(row) for row in zip(*cols)] == invert_on_cohomology(
            f, f.source, f.target, n)


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


def test_non_minimal_models_are_rejected():
    V = parse_model(next(p.values[0] for p in MODEL_TEXTS if p.id == "linear-d")).model
    for pipeline in (brane_product_dual, brane_coproduct_dual):
        with pytest.raises(ModelError, match="minimal model"):
            pipeline(V, 2, max_degree=2)


@pytest.mark.parametrize("text", [S4, S3XS4, S3XS4_REORDERED],
                         ids=["s4", "s3xs4", "s3xs4-reordered"])
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
        assert seen and all(M is op.state for M in seen)

