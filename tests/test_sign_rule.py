"""One sign rule: the checkers on signed tables against the checkers they
replaced, and the parity condition the sign-free laws rest on.

``brane_ops._signed`` multiplies each dual-table entry by its dualization
sign, and the checkers run the plain laws on the result, with the Koszul
swap ``_swap`` as their only sign.  ``oracles.check_*`` are the checkers as
they were, each law on the unsigned tables with its own signs.  The two
agree on every table whose entries respect the degrees
(|a| + |b| = |c| + shift) when the shifts of μ∨ and δ∨ have the parity of m
and m ≡ m̄ (mod 2).  ``test_shifts_are_the_formal_dimensions`` checks that
the shifts are m and m̄ by their formulas, both ≡ dim V (mod 2), on every
model the per-model tests build, and
``test_reports_equal_the_old_checkers`` compares full Reports on seeded
corruptions of the dual tables, each corruption keeping the degrees.  A
sign common to every entry of a table moves no law; the golden tables and
the TSV-matrix digests pin those.
"""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from branecalc import (
    betti,
    brane_coproduct_dual,
    brane_product_dual,
    check_associativity,
    check_commutativity,
    check_frobenius,
    parse_model,
)
from branecalc.brane_ops import class_pairs
from branecalc.shriek import delta_degree
from conftest import AB, HP2, MODEL_TEXTS, S3_3, S3_4, S4XS6

_spec = importlib.util.spec_from_file_location(
    "tsv_matrix", Path(__file__).resolve().parent.parent / "scripts" / "tsv_matrix.py")
tsv_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tsv_matrix)

# S³×S⁴'s generators with a last
S4XS3 = "gen x 4\ngen y 7\nd y = x^2\ngen a 3\n"
ACCEPTED = [p for p in MODEL_TEXTS if p.id != "linear-d"]
# the info models of the right parity; the CLI rejects the "-bad-" ones
INFO = [pytest.param(text, id=name) for name, text in tsv_matrix.INFO.items()
        if "-bad-" not in name]
# (model text, check depth, seeds); (S³)³'s associativity check is the
# slowest, so it runs shallower and on fewer seeds
CHECKED = [pytest.param(p.values[0], 8, 12, id=p.id)
           for p in ACCEPTED + [pytest.param(S4XS3, id="s4xs3")] + INFO
           ] + [pytest.param(S3_3, 5, 5, id="s3_3")]


def build(text, depth):
    """(product, coproduct) as the verify suites build them: the product
    built past depth by its own shift."""
    V = parse_model(text).model
    return (brane_product_dual(V, 2, depth + max(delta_degree(V), 0)),
            brane_coproduct_dual(V, 2, depth))


def corrupt(op, rng):
    """A copy of op with one to three entries negated, doubled, dropped or
    added; an added entry has the degrees of a real one."""
    table = {key: dict(row) for key, row in op.table.items()}
    product = op.kind == "product-dual"
    for _ in range(rng.randint(1, 3)):
        key = rng.choice(sorted(table))
        row = table[key]
        how = rng.choice(("negate", "double", "drop", "add"))
        if how != "add" and row:
            other = rng.choice(sorted(row))
            if how == "drop":
                del row[other]
            else:
                row[other] *= -1 if how == "negate" else 2
            continue
        if product:
            n = key[0] + op.shift
            dims = [betti(op.state, d) for d in range(n + 1)]
            candidates = class_pairs(dims, n)
        else:
            n = key[0][0] + key[1][0] + op.shift
            candidates = [(n, i) for i in range(betti(op.state, n))]
        candidates = [c for c in candidates if c not in row]
        if candidates:
            row[rng.choice(candidates)] = Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
    return op._replace(table=table)


def reports(prod, cop, depth, checkers):
    assoc, comm, frob = checkers
    return [assoc(prod, depth), comm(prod), comm(cop), frob(prod, cop, depth)]


@pytest.mark.parametrize("text, depth, seeds", CHECKED)
def test_reports_equal_the_old_checkers(text, depth, seeds):
    prod, cop = build(text, depth)
    new = (check_associativity, check_commutativity, check_frobenius)
    old = (oracles.check_associativity, oracles.check_commutativity, oracles.check_frobenius)
    assert reports(prod, cop, depth, new) == reports(prod, cop, depth, old)
    assert all(r.ok for r in reports(prod, cop, depth, new))
    failed = 0
    for seed in range(seeds):
        rng = random.Random(seed)
        p, c = prod, cop
        which = rng.choice(("product", "coproduct", "both"))
        if which != "coproduct":
            p = corrupt(prod, rng)
        if which != "product":
            c = corrupt(cop, rng)
        got = reports(p, c, depth, new)
        assert got == reports(p, c, depth, old), seed
        failed += sum(not r.ok for r in got)
    assert failed  # the corruptions reach the laws


PARITY_MODELS = ACCEPTED + [
    pytest.param(text, id=name) for name, text in (
        ("hp2", HP2), ("ab", AB), ("s4xs6", S4XS6), ("s3_3", S3_3), ("s3_4", S3_4),
        ("s4xs3", S4XS3))] + INFO


@pytest.mark.parametrize("text", PARITY_MODELS)
def test_shifts_are_the_formal_dimensions(text):
    V = parse_model(text).model
    prod, cop = build(text, 0)
    assert prod.shift == delta_degree(V) == oracles.formal_m(V)
    assert cop.shift == oracles.formal_m_bar(V, 2)
    dim = len(V.algebra.generators)
    assert (prod.shift - dim) % 2 == 0 and (cop.shift - dim) % 2 == 0


@pytest.mark.parametrize("text, m, m_bar", [
    ("gen x 3\n", 3, -1), ("gen x 4\ngen y 7\nd y = x^2\n", 4, -2),
], ids=["s3", "s4"])
def test_shifts_of_s3_and_s4(text, m, m_bar):
    prod, cop = build(text, 0)
    assert (prod.shift, cop.shift) == (m, m_bar)
