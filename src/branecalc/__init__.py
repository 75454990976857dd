"""Rational-homotopy calculator for sphere mapping spaces.

Builds Sullivan models for sphere, disk, and path mapping spaces of a
minimal algebra (∧V, d), computes the shriek maps needed to glue them, and
produces the brane product and brane coproduct on cohomology together with
their homology-level duals, all over exact rational arithmetic.
"""

from .gca_core import (
    Element,
    Generator,
    GradedAlgebra,
    Monomial,
    ONE,
    Provenance,
    translate,
)
from .dga_models import (
    Derivation,
    DgaModel,
    DgaMorphism,
    ModelError,
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
from .cohomology import (
    CohomologyBasis,
    betti,
    class_vector,
    cohomology_basis,
)
from .shriek import (
    ModuleMap,
    cocycle_defects,
    delta_evaluation,
    is_pure,
    is_semi_pure,
    one_generator_ext_sign,
    shriek_delta_semipure,
    shriek_gamma_pure,
    transposition_sign_loop,
)
from .brane_ops import (
    BraneOperation,
    Report,
    brane_coproduct_dual,
    brane_product_dual,
    check_associativity,
    check_commutativity,
    check_frobenius,
    dualize_to_homology,
)

# The cli module loads on first use, so that `python -m branecalc.cli` runs
# it once, as __main__, rather than after an import through the package.
_CLI_NAMES = ("cli", "ModelFile", "ParseError", "main", "parse_model", "print_model")


def __getattr__(name: str):
    if name in _CLI_NAMES:
        from importlib import import_module

        cli = import_module(".cli", __name__)
        return cli if name == "cli" else getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [name for name in dir() if not name.startswith("_")] + list(_CLI_NAMES)
__version__ = "0.1.0"
