"""Acceptance gate: one test per shipped guarantee, exact equality throughout.

Each test prints a single ``criterion N: PASS|FAIL`` line.

Criterion 1's reference table proves its own entries before it is compared
with the computed one.  Its top-class entry is δ(yz) = +yz⊗yz, forced by the
rest of the table: in the m-shifted grading δ has even degree, so the
Frobenius law δ(ab) = δ(a)·(1⊗b) carries no Koszul sign, and with a = y,
b = z and δ(y) = y⊗yz + yz⊗y it reads δ(yz) = y⊗(yz·z) + yz⊗(y·z) = yz⊗yz.
Coassociativity on y gives the same sign.  An earlier reference entry,
−yz⊗yz, breaks both laws; the criterion keeps it as a negative control.
"""

from fractions import Fraction

import pytest

from branecalc import (
    brane_coproduct_dual,
    check_associativity,
    check_commutativity,
    check_frobenius,
    cocycle_defects,
    delta_evaluation,
    disk_model,
    dualize_to_homology,
    Provenance,
    path_model,
    quotient,
    shriek_delta_semipure,
    shriek_gamma_pure,
    sphere_model,
    one_generator_ext_sign,
    transposition_sign_loop,
)

from conftest import (
    build_s3,
    build_s3xs3,
    build_s4,
    coassociative,
    frobenius,
)
from oracles import (
    coproduct_double_composite,
    gamma_evaluation,
    is_quasi_iso,
    morphism_phi,
)

F1 = Fraction(1)
L1, LW, LX, LXW = (0, 0), (1, 0), (3, 0), (4, 0)


def report(n, ok, detail=""):
    tail = f" — {detail}" if detail and not ok else ""
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {n}{tail}"


def homology_laws(product, coproduct):
    """Whether each shifted-homology law holds on the two tables, by name."""
    return {
        "Frobenius, right module form": frobenius(product, coproduct, "right"),
        "Frobenius, left module form": frobenius(product, coproduct, "left"),
        "coassociativity": coassociative(coproduct),
    }


def test_criterion_1_shifted_homology_operations_match_reference_table(
    s3_product, s3_coproduct
):
    m = s3_product.shift
    hp = dualize_to_homology(s3_product)
    hc = dualize_to_homology(s3_coproduct)
    failures = []

    # ∧(y, z) with deg y = −3, deg z = 1, unit σ(x)∨;
    # basis change y = σ(1)∨, z = −σ(x·s2x)∨, yz = σ(s2x)∨
    if L1[0] - m != -3 or LXW[0] - m != 1:
        failures.append("generator degrees")
    exterior = {
        (LX, LX): {LX: F1},
        (LX, L1): {L1: F1},
        (L1, LX): {L1: F1},
        (LX, LXW): {LXW: F1},
        (LXW, LX): {LXW: F1},
        (L1, LXW): {LW: -F1},
        (LXW, L1): {LW: F1},
    }
    for key, want in exterior.items():
        if hp.table.get(key, {}) != want:
            failures.append(f"product at {key}")
    for key in ((L1, L1), (LXW, LXW)):
        if hp.table.get(key, {}):
            failures.append(f"square at {key} should vanish")

    reference_coproduct = {
        LX: {(LX, LW): F1, (L1, LXW): F1, (LXW, L1): -F1, (LW, LX): F1},
        L1: {(L1, LW): F1, (LW, L1): F1},
        LXW: {(LXW, LW): F1, (LW, LXW): F1},
        LW: {(LW, LW): F1},  # forced by the laws below; see module docstring
    }

    # The reference must satisfy the laws it is meant to witness, checked by
    # arithmetic on the dicts above alone.  δ is homogeneous of degree −2,
    # even, so the laws carry no Koszul sign.  The unit law completes the
    # product on the top class, which `exterior` leaves out.
    degree = {c: c[0] - m for c in reference_coproduct}
    shifts = {
        degree[a] + degree[b] - degree[c]
        for c, row in reference_coproduct.items()
        for a, b in row
    }
    if shifts != {-2}:
        failures.append(f"reference coproduct degrees {shifts}, want {{-2}}")
    product = {**exterior, (LX, LW): {LW: F1}, (LW, LX): {LW: F1}}
    for law, ok in homology_laws(product, reference_coproduct).items():
        if not ok:
            failures.append(f"reference breaks {law}")
    # negative control: the old entry δ(yz) = −yz⊗yz breaks every law
    old = {**reference_coproduct, LW: {(LW, LW): -F1}}
    for law, ok in homology_laws(product, old).items():
        if ok:
            failures.append(f"{law} accepts δ(yz) = −yz⊗yz")

    for key, want in reference_coproduct.items():
        got = hc.table.get(key, {})
        if got != want:
            failures.append(f"coproduct at {key}: got {got}, want {want}")

    report(1, not failures, "; ".join(failures))


def test_criterion_2_dual_level_golden_values(s3_product, s3_coproduct):
    failures = []
    if s3_product.table[L1] != {(L1, LX): F1, (LX, L1): -F1}:
        failures.append("μ∨(1)")
    if s3_product.table[LW] != {
        (L1, LXW): F1,
        (LW, LX): -F1,
        (LX, LW): -F1,
        (LXW, L1): -F1,
    }:
        failures.append("μ∨(s2x)")
    t = s3_coproduct.table
    anchors = {
        (L1, L1): {},
        (LW, L1): {L1: -F1},
        (L1, LW): {L1: F1},
        (LW, LW): {LW: -F1},
    }
    for key, want in anchors.items():
        if t.get(key) != want:
            failures.append(f"δ∨ at {key}")
    report(2, not failures, "; ".join(failures))


def test_criterion_3_even_sphere_coproduct_vanishes_through_degree_14(s4):
    cop = brane_coproduct_dual(s4, 2, max_degree=14)
    bad = [k for k, row in cop.table.items() if row]
    report(3, not bad, f"nonzero at {bad[:3]}")


def test_criterion_4_model_construction_suite():
    failures = []
    for build in (build_s3, build_s4, build_s3xs3):
        V = build()
        name = V.algebra.name
        for M in (sphere_model(V, 2), disk_model(V, 2), path_model(V)):
            if M.d_squared_witnesses():
                failures.append(f"d² ≠ 0 for {M.algebra.name}")
        if not is_quasi_iso(morphism_phi(disk_model(V, 2)), 14):
            failures.append(f"ε̃ not a quasi-iso for {name}")
        disk = disk_model(V, 2)
        collapsed, _ = quotient(
            disk, [Provenance("susp", 1, g.name) for g in V.algebra.generators])
        if collapsed.signature() != sphere_model(V, 3).signature():
            failures.append(f"base change mismatch for {name}")
    report(4, not failures, "; ".join(failures))


def test_criterion_5_shriek_cocycles_and_evaluation():
    failures = []
    for build in (build_s3, build_s4):
        V = build()
        name = V.algebra.name
        gs = shriek_gamma_pure(V)
        if cocycle_defects(gs):
            failures.append(f"D(γ!) ≠ 0 for {name}")
        ds = shriek_delta_semipure(V)
        if cocycle_defects(ds):
            failures.append(f"D(δ!) ≠ 0 for {name}")
        for label, (ev, vec, _) in (
            ("γ", gamma_evaluation(V)),
            ("δ", delta_evaluation(V)),
        ):
            if ev.is_zero() or not any(vec):
                failures.append(f"{label} evaluation trivial for {name}")
    report(5, not failures, "; ".join(failures))


def test_criterion_6_sign_laws():
    failures = []
    for build, want in ((build_s3, -1), (build_s4, 1)):
        V = build()
        assert want == (-1) ** len(V.algebra.generators)
        if transposition_sign_loop(V) != want:
            failures.append(f"loop transposition sign for {V.algebra.name}")
    if one_generator_ext_sign(3, 2) != -1:
        failures.append("odd one-generator sign")
    if one_generator_ext_sign(4, 2) != -1:
        failures.append("even one-generator sign")
    report(6, not failures, "; ".join(failures))


def test_criterion_7_structure_checkers_and_negative_controls(
    s3_product, s3_coproduct
):
    failures = []
    for rep in (
        check_associativity(s3_product, 8),
        check_commutativity(s3_product),
        check_commutativity(s3_coproduct),
        check_frobenius(s3_product, s3_coproduct, max_degree=8),
    ):
        if not rep.ok:
            failures.append(f"{rep.name} failed on the genuine tables")

    bad_prod_table = {c: dict(row) for c, row in s3_product.table.items()}
    bad_prod_table[LW][(LW, LX)] = -bad_prod_table[LW][(LW, LX)]
    bad_prod = s3_product._replace(table=bad_prod_table)
    bad_cop_table = {k: dict(row) for k, row in s3_coproduct.table.items()}
    bad_cop_table[(LW, L1)][L1] = -bad_cop_table[(LW, L1)][L1]
    bad_cop = s3_coproduct._replace(table=bad_cop_table)
    for rep in (
        check_associativity(bad_prod, 8),
        check_commutativity(bad_prod),
        check_commutativity(bad_cop),
        check_frobenius(s3_product, bad_cop, max_degree=8),
    ):
        if rep.ok:
            failures.append(f"{rep.name} accepted a perturbed table")
    report(7, not failures, "; ".join(failures))


def test_criterion_8_double_coproduct_composite_is_nonzero(s3_coproduct):
    composite = coproduct_double_composite(s3_coproduct)
    report(8, bool(composite), "composite is identically zero")
