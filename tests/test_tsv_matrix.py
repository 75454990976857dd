"""Every row of the TSV matrix, replayed in-process.

``scripts/tsv_matrix.py`` fingerprints 566 CLI commands, and its output as
the tables stand is committed as ``scripts/tsv_matrix.expected``.  Each of
its commands is run again here, through the script's own ``commands``,
``run`` and ``label``, and its exit code and the sha256 of its stdout and
stderr must equal the committed line, so a change to any table, dump,
check or message fails the tests.  The script stays, for re-recording the
file after a deliberate change and for comparing two checkouts.

A re-recorded file could bless a wrong exit code, so the codes it commits
are checked on their own: ``brane-product --k 3`` succeeds on S⁴ only
(S³ and S³×S³ have generators of degree 3); the coproduct rejects every
model in ``REJECTED`` before it builds one; every ``check-dga``, default
``--format table`` and deep ``cohomology`` row succeeds; and the ``INFO``
models give the codes below, two wrong-parity ones failing every command.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from branecalc.cli import main

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("tsv_matrix", ROOT / "scripts" / "tsv_matrix.py")
tsv_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tsv_matrix)

LINES = [line.split("\t") for line in
         (ROOT / "scripts" / "tsv_matrix.expected").read_text().splitlines()]
EXPECTED = {lab: (int(code), out, err) for code, out, err, lab in LINES}
COMMANDS = tsv_matrix.commands()
LABELS = [tsv_matrix.label(*c) for c in COMMANDS]


def exit_code(argv, name=None):
    return EXPECTED[tsv_matrix.label(argv, name)][0]


def test_the_commands_and_the_file_have_the_same_labels_once_each():
    assert len(set(LABELS)) == len(LABELS)
    assert sorted(LABELS) == sorted(lab for *_, lab in LINES)


def test_the_committed_exit_codes():
    k3 = [exit_code(*c) for c in COMMANDS if c[0][0] == "brane-product" and "--k" in c[0]]
    assert sorted(k3) == [0, 2, 2]
    assert {exit_code(["brane-coproduct", "-", "--format", "tsv"], n)
            for n in tsv_matrix.REJECTED} == {2}
    succeed = [c for c in COMMANDS if c[0][0] == "check-dga" or c[1] in tsv_matrix.WIDE]
    succeed += [(argv, None) for model in tsv_matrix.MODELS
                for argv in tsv_matrix.table_format(model)]
    assert {exit_code(*c) for c in succeed} == {0}
    # per model, in INFO_COMMANDS order: the two tables, then the suites
    # assoc, comm, frobenius, golden, signs and vanishing
    codes = {name: "".join(str(exit_code(argv, name)) for argv in tsv_matrix.INFO_COMMANDS)
             for name in tsv_matrix.INFO}
    assert codes == {"s4-info": "00000200", "s3-info": "00000002",
                     "s3xs4-info": "00000200", "s3-bad-m": "22222222",
                     "s4-bad-mbar": "22222222"}


@pytest.mark.parametrize("argv,name", COMMANDS, ids=LABELS)
def test_the_row_matches_the_expected_digests(argv, name, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(sys, "stdin", sys.stdin)  # run replaces it
    code, out, err = tsv_matrix.run(main, argv, tsv_matrix.TEXTS[name] if name else "")
    got = code, hashlib.sha256(out).hexdigest(), hashlib.sha256(err).hexdigest()
    assert got == EXPECTED[tsv_matrix.label(argv, name)]
