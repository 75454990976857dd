"""The top-degree table rows of the TSV matrix, replayed in-process.

``scripts/tsv_matrix.py`` fingerprints 566 CLI commands, and its output as
the tables stand is committed as ``scripts/tsv_matrix.expected``.  The
``brane-product`` and ``brane-coproduct`` rows at each model's top
``--max-degree``, with and without ``--homology``, are run again here
through the script's own ``commands``, ``run`` and ``label``, so a change
to any table fails the tests, not only the manual diff.  A table through
degree n holds every table below it as rows, so the top rows stand for the
rest.  The model dumps (``sphere-model``, ``disk-model``, ``path-model``)
and the ``cohomology`` tables are replayed too, all of them, including the
``disk-model --k 3`` rows whose exit code 2 and stderr digest pin the error
message, and so are all the ``verify`` rows: ``verify --suite signs`` is
the CLI's one path through ``shriek.evaluation_pairing``.  So are the
``check-dga`` rows, one per model file and stdin model.  The
``brane-product --k 3`` rows are replayed as well: S⁴'s k = 3 table, and
the exit code 2 and stderr digest with which S³ and S³×S³, whose
generators have degree 3, are rejected before any model is built.  So
are the ``brane-coproduct`` rows on the models in ``REJECTED``, whose exit
code 2 and stderr digest pin the messages with which the coproduct rejects
a generator of degree 2 and generators named like a derived s1_x: with an
even generator or without, and with two such clashes, where the first in
V's order is the one reported.  The rows in the default ``--format table`` are replayed, and so are the rows
on the five ``INFO`` models, whose ``info`` lines give m or m̄: on
``s3xs4-info`` (``info m = 1``, its own m is 7) the ``verify --suite assoc``
row pins that the suite builds to the depth of μ∨'s own shift, and on
``s3-bad-m`` and ``s4-bad-mbar``, whose lines have the wrong parity, every
row pins the exit code 2 and the message.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from branecalc.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "tsv_matrix.py"
_spec = importlib.util.spec_from_file_location("tsv_matrix", SCRIPT)
tsv_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tsv_matrix)


def top_degree_tables():
    """(argv, stdin model name) of the table commands at the top degree."""
    top = {}
    for argv, name in tsv_matrix.commands():
        if argv[0] not in ("brane-product", "brane-coproduct") or "--max-degree" not in argv:
            continue
        key = (argv[0], argv[1], name, "--homology" in argv)
        degree = int(argv[argv.index("--max-degree") + 1])
        if key not in top or degree > top[key][0]:
            top[key] = degree, argv, name
    return [(argv, name) for _, argv, name in top.values()]


EXPECTED = {}
for line in (ROOT / "scripts" / "tsv_matrix.expected").read_text().splitlines():
    code, out, err, lab = line.split("\t")
    EXPECTED[lab] = int(code), out, err
CASES = top_degree_tables()
TABLE_FORMAT = [(argv, None) for model in tsv_matrix.MODELS
                for argv in tsv_matrix.table_format(model)]
INFO = [(argv, name) for argv, name in tsv_matrix.commands() if name in tsv_matrix.INFO]
DUMPS = [(argv, name) for argv, name in tsv_matrix.commands()
         if argv[0] in ("sphere-model", "disk-model", "path-model", "cohomology")
         and (argv, name) not in TABLE_FORMAT and name not in tsv_matrix.WIDE]
VERIFY = [(argv, name) for argv, name in tsv_matrix.commands()
          if argv[0] == "verify" and name not in tsv_matrix.INFO]
CHECK_DGA = [(argv, name) for argv, name in tsv_matrix.commands()
             if argv[0] == "check-dga"]
K3_PRODUCTS = [(argv, name) for argv, name in tsv_matrix.commands()
               if argv[0] == "brane-product" and "--k" in argv]
REJECTED = [(argv, name) for argv, name in tsv_matrix.commands()
            if name in tsv_matrix.REJECTED]
WIDE = [(argv, name) for argv, name in tsv_matrix.commands() if name in tsv_matrix.WIDE]


def test_every_model_is_replayed_with_and_without_homology():
    assert len(CASES) == 2 * 2 * (len(tsv_matrix.MODELS) + len(tsv_matrix.STDIN))
    assert all(tsv_matrix.label(argv, name) in EXPECTED for argv, name in CASES)


def test_every_model_dump_is_replayed():
    per_model = 2 * 3 + 2  # sphere and disk at --k 1, 2, 3; path; cohomology
    assert len(DUMPS) == per_model * len(tsv_matrix.MODELS)
    assert all(tsv_matrix.label(argv, name) in EXPECTED for argv, name in DUMPS)


def test_every_verify_row_is_replayed():
    assert len(VERIFY) == (len(tsv_matrix.SUITES) * len(tsv_matrix.MODELS)
                           + len(tsv_matrix.STDIN_SUITES) * len(tsv_matrix.STDIN))
    assert all(tsv_matrix.label(argv, name) in EXPECTED for argv, name in VERIFY)


def test_every_check_dga_row_is_replayed():
    assert len(CHECK_DGA) == len(tsv_matrix.MODELS) + len(tsv_matrix.STDIN)
    assert all(EXPECTED[tsv_matrix.label(*c)][0] == 0 for c in CHECK_DGA)


def test_every_k3_product_row_is_replayed():
    assert len(K3_PRODUCTS) == len(tsv_matrix.MODELS)
    assert all(argv[argv.index("--k") + 1] == "3" for argv, _ in K3_PRODUCTS)
    assert sorted(EXPECTED[tsv_matrix.label(*c)][0] for c in K3_PRODUCTS) == [0, 2, 2]


def test_every_rejected_coproduct_row_is_replayed():
    assert [name for _, name in REJECTED] == list(tsv_matrix.REJECTED)
    assert all(argv[0] == "brane-coproduct" for argv, _ in REJECTED)
    assert all(EXPECTED[tsv_matrix.label(*c)][0] == 2 for c in REJECTED)


def test_every_table_format_row_is_replayed():
    commands = tsv_matrix.commands()
    assert len(TABLE_FORMAT) == 3 * len(tsv_matrix.MODELS)
    assert all(c in commands and "--format" not in c[0] for c in TABLE_FORMAT)
    assert all(EXPECTED[tsv_matrix.label(*c)][0] == 0 for c in TABLE_FORMAT)


def test_every_info_row_is_replayed():
    assert len(INFO) == len(tsv_matrix.INFO_COMMANDS) * len(tsv_matrix.INFO) == 40
    assert all("\ninfo m" in tsv_matrix.TEXTS[name] for _, name in INFO)
    # per model, in INFO_COMMANDS order: the two tables, then the suites
    # assoc, comm, frobenius, golden, signs and vanishing
    codes = {name: "".join(str(EXPECTED[tsv_matrix.label(argv, n)][0])
                           for argv, n in INFO if n == name) for name in tsv_matrix.INFO}
    assert codes == {"s4-info": "00000200", "s3-info": "00000002",
                     "s3xs4-info": "00000200", "s3-bad-m": "22222222",
                     "s4-bad-mbar": "22222222"}


def test_the_wide_row_is_replayed():
    assert WIDE == [(tsv_matrix.WIDE_COMMAND, "x2-wide")]
    assert EXPECTED[tsv_matrix.label(*WIDE[0])][0] == 0


def replay(argv, name, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(sys, "stdin", sys.stdin)  # run replaces it
    stdin = tsv_matrix.TEXTS[name] if name else ""
    code, out, err = tsv_matrix.run(main, argv, stdin)
    got = code, hashlib.sha256(out).hexdigest(), hashlib.sha256(err).hexdigest()
    assert got == EXPECTED[tsv_matrix.label(argv, name)]


@pytest.mark.parametrize("argv,name", CASES, ids=[tsv_matrix.label(*c) for c in CASES])
def test_top_degree_table_matches_the_expected_digests(argv, name, monkeypatch):
    replay(argv, name, monkeypatch)


@pytest.mark.parametrize("argv,name", DUMPS, ids=[tsv_matrix.label(*c) for c in DUMPS])
def test_model_dump_matches_the_expected_digests(argv, name, monkeypatch):
    replay(argv, name, monkeypatch)


@pytest.mark.parametrize("argv,name", VERIFY, ids=[tsv_matrix.label(*c) for c in VERIFY])
def test_verify_row_matches_the_expected_digests(argv, name, monkeypatch):
    replay(argv, name, monkeypatch)


@pytest.mark.parametrize("argv,name", K3_PRODUCTS,
                         ids=[tsv_matrix.label(*c) for c in K3_PRODUCTS])
def test_k3_product_row_matches_the_expected_digests(argv, name, monkeypatch):
    replay(argv, name, monkeypatch)


@pytest.mark.parametrize("argv,name", CHECK_DGA, ids=[tsv_matrix.label(*c) for c in CHECK_DGA])
def test_check_dga_row_matches_the_expected_digests(argv, name, monkeypatch):
    replay(argv, name, monkeypatch)


@pytest.mark.parametrize("argv,name", REJECTED, ids=[tsv_matrix.label(*c) for c in REJECTED])
def test_rejected_coproduct_row_matches_the_expected_digests(argv, name, monkeypatch):
    replay(argv, name, monkeypatch)


@pytest.mark.parametrize("argv,name", TABLE_FORMAT,
                         ids=[tsv_matrix.label(*c) for c in TABLE_FORMAT])
def test_table_format_row_matches_the_expected_digests(argv, name, monkeypatch):
    replay(argv, name, monkeypatch)


@pytest.mark.parametrize("argv,name", INFO, ids=[tsv_matrix.label(*c) for c in INFO])
def test_info_row_matches_the_expected_digests(argv, name, monkeypatch):
    replay(argv, name, monkeypatch)


@pytest.mark.parametrize("argv,name", WIDE, ids=[tsv_matrix.label(*c) for c in WIDE])
def test_wide_row_matches_the_expected_digests(argv, name, monkeypatch):
    replay(argv, name, monkeypatch)
