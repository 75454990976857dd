"""The benchmark's workloads: named lists of branecalc CLI operations.

Each operation is one ``branecalc.cli.main(argv)`` call.  Paths in argv are
relative to the repository root, where the benchmark runs.  The ``check``
field names the independent checker in ``checks.py`` that an operation's
output had to pass before its reference digest was recorded.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    id: str
    command: str
    check: str

    @property
    def argv(self) -> list[str]:
        return self.command.split()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    models: tuple[str, ...]  # model files parsed and checked during set-up
    ops: tuple[Op, ...]


S3, S4, S3XS3 = "models/s3.model", "models/s4.model", "models/s3xs3.model"
MALFORMED = "branebench/malformed.model"


def _model_ops() -> tuple[Op, ...]:
    ops = []
    for kind in ("sphere", "disk", "path"):
        for tag, path in (("s3", S3), ("s4", S4), ("s3xs3", S3XS3)):
            ops.append(Op(f"{kind}-model-{tag}",
                          f"{kind}-model {path} --format tsv", f"{kind}-model"))
    return tuple(ops)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "coproduct-s4-d14",
            "largest sparse matrices: rref in cohomology_basis dominates",
            (S4,),
            (Op("coproduct-s4-d14",
                f"brane-coproduct {S4} --max-degree 14 --format tsv", "vanishing-table"),),
        ),
        Workload(
            "product-d10",
            "Kunneth bookkeeping, class_vector solves and the delta-shriek solve",
            (S3XS3, S4),
            (
                Op("product-s3xs3-d10",
                   f"brane-product {S3XS3} --k 2 --max-degree 10 --homology --format tsv",
                   "product-laws"),
                Op("product-s4-d10",
                   f"brane-product {S4} --k 2 --max-degree 10 --format tsv",
                   "product-laws"),
            ),
        ),
        Workload(
            "cli-small",
            "25 short commands; the typical one is parsing, model building and emission, so a kernel change should not move op_s.p50",
            (S3, S4, S3XS3),
            (
                Op("check-dga-s4", f"check-dga {S4}", "d-squared-ok"),
                Op("check-dga-s3xs3", f"check-dga {S3XS3}", "d-squared-ok"),
                Op("cohomology-s4-d20",
                   f"cohomology {S4} --max-degree 20 --format tsv", "cohomology-dims"),
                Op("cohomology-s3xs3-d8",
                   f"cohomology {S3XS3} --max-degree 8 --format tsv", "cohomology-dims"),
                *_model_ops(),
                Op("product-s3-d8",
                   f"brane-product {S3} --k 2 --max-degree 8 --homology --format tsv",
                   "s3-product-golden"),
                Op("coproduct-s3-d8",
                   f"brane-coproduct {S3} --max-degree 8 --homology --format tsv",
                   "s3-coproduct-golden"),
                Op("product-s4-d6",
                   f"brane-product {S4} --k 2 --max-degree 6 --format tsv", "product-laws"),
                Op("coproduct-s4-d6",
                   f"brane-coproduct {S4} --max-degree 6 --format tsv", "vanishing-table"),
                *(Op(f"verify-s3-{suite}", f"verify {S3} --suite {suite}", "verify-pass")
                  for suite in ("golden", "signs", "assoc", "comm", "frobenius")),
                Op("verify-s4-vanishing", f"verify {S4} --suite vanishing", "verify-pass"),
                Op("error-s3-k3",
                   f"brane-product {S3} --k 3 --max-degree 8 --format tsv", "usage-error"),
                Op("error-malformed", f"check-dga {MALFORMED}", "usage-error"),
            ),
        ),
    )
}
