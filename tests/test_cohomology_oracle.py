"""Cohomology dimensions against an independent rank count.

dim Hⁿ = dim Cⁿ − rank dₙ − rank dₙ₋₁, with the ranks taken by sympy from
matrices built straight from ``M.d`` on each basis monomial, on the models
the product and coproduct pipelines build.
"""

from functools import lru_cache

import pytest

from branecalc import (
    cohomology_basis,
    disk_model,
    path_model,
    relative_tensor,
    sphere_model,
    tensor_model,
)
from branecalc.shriek import shriek_gamma_pure

from conftest import build_s3, build_s3xs3, build_s4

sympy = pytest.importorskip("sympy")

TOP = 7
MAX_DIM = 64  # sympy ranks of larger matrices would dominate tier-1 time
BASES = {"s3": build_s3, "s4": build_s4, "s3xs3": build_s3xs3}
NAMES = ["sphere k=1", "sphere k=2", "sphere k=3", "disk", "path",
         "sphere square", "double disk", "shriek source"]


@lru_cache(maxsize=None)
def pipeline_models(base):
    V = BASES[base]()
    disk = disk_model(V, 2)
    state = sphere_model(V, 3)
    double, _, _ = relative_tensor(disk, disk)
    return {
        **{f"sphere k={k}": sphere_model(V, k) for k in (1, 2, 3)},
        "disk": disk,
        "path": path_model(V),
        "sphere square": tensor_model(state, state)[0],
        "double disk": double,
        "shriek source": relative_tensor(shriek_gamma_pure(V).source, double)[0],
    }


def rank_of_d(M, n):
    """Rank of d: Cⁿ → Cⁿ⁺¹, from M.d on each monomial of degree n."""
    src, tgt = M.algebra.basis(n), M.algebra.basis(n + 1)
    if not src or not tgt:
        return 0
    index = {m: i for i, m in enumerate(tgt)}
    mat = sympy.zeros(len(tgt), len(src))
    for j, mono in enumerate(src):
        d_mono = M.d(M.algebra.monomial_element(mono))
        for m in d_mono.terms:
            c = d_mono.coefficient(m)
            mat[index[m], j] = sympy.Rational(c.numerator, c.denominator)
    return mat.rank()


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("base", BASES)
def test_cohomology_dimensions_match_rank_count(base, name):
    M = pipeline_models(base)[name]
    dims = [len(M.algebra.basis(n)) for n in range(TOP + 2)]
    top = max(n for n in range(TOP + 1) if max(dims[:n + 2]) <= MAX_DIM)
    ranks = [rank_of_d(M, n) for n in range(top + 1)]
    for n in range(top + 1):
        dim = dims[n]
        want = dim - ranks[n] - (ranks[n - 1] if n else 0)
        assert cohomology_basis(M, n).dimension == want, f"H^{n}"
