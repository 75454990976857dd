"""Fingerprint the CLI's output over a fixed matrix of commands.

Runs 566 commands in-process through ``branecalc.cli.main`` and prints one
line per command: exit code, sha256 of stdout, sha256 of stderr, argv (and,
for a model read from stdin, ``<`` and its name).  The commands, each on
models/s3.model, models/s4.model and models/s3xs3.model:

* ``brane-product`` and ``brane-coproduct`` with ``--format tsv``, with and
  without ``--homology``, at ``--max-degree`` 0 to 14;
* the model dumps ``sphere-model`` and ``disk-model`` at ``--k`` 1, 2, 3 and
  ``path-model``;
* ``cohomology --max-degree 12`` and ``check-dga``;
* the six ``verify`` suites, and ``brane-product --k 3``;
* in the default ``--format table``, ``brane-product`` and
  ``brane-coproduct`` with ``--homology`` and ``cohomology``, each at
  ``--max-degree 8`` (``TABLE_FORMAT``);

and, on the models in ``STDIN`` below, read from stdin (``-``) so that they
need no model file and a parent checkout runs them unchanged,
``brane-product`` and ``brane-coproduct`` with and without ``--homology``:
S³×S⁴ at ``--max-degree`` 0 to 12, a model with generators of both
parities; S⁴ with ``d y = 2/3*x^2`` at 0 to 14 and ``a 4, b 6, y 7, z 11``
with ``d z = 1/2*b^2 - 3/5*a^3`` at 0 to 10, whose non-integral coefficients
reach the path model, δ! and every section; S³×S⁵×S⁷ at 0 to 14, whose
coproducts are nonempty; and S³×S⁴ again at 0 to 12 with its generators
listed out of degree order (``y 7``, ``x 4``, ``a 3``), which pins the
order in which sections are solved: by degree, not by generator id.
Each of these five also runs the ``verify`` suites ``signs`` and
``assoc``, the suites that build δ!, and ``check-dga``.  Last,
``brane-coproduct`` runs on the five stdin models in ``REJECTED``, which it
rejects before it builds a model: their exit code 2 and stderr digest pin
the messages.  The five models in ``INFO`` carry ``info`` lines that give
m or m̄; each runs ``brane-product`` and ``brane-coproduct`` with
``--homology`` and the six ``verify`` suites (``INFO_COMMANDS``).  Three
give a value of the right parity: ``s3xs4-info`` is S³×S⁴ with
``info m = 1``, far from its own m = 7, and its ``verify --suite assoc``
row pins that the suite builds μ∨ to the depth of the table's own shift,
δ!'s degree, not of the line's value.  Two give the wrong parity:
``s3-bad-m`` (S³ with ``info m = 2``) and ``s4-bad-mbar`` (S⁴ with
``info mbar = 1``), whose exit code 2 and stderr digest pin the message.
Last, ``cohomology --max-degree 300`` on ``WIDE``, one generator of degree
2, prints x^150: an exponent that no 8-bit field holds.

The output of the tables as they stand is committed next to this script,
so a change that alters any table shows it in its own diff::

    python3 scripts/tsv_matrix.py | diff scripts/tsv_matrix.expected -

``tests/test_tsv_matrix.py`` replays every row of that file, one test per
command, so the tests make the same comparison; this script stays for
re-recording the file after a deliberate change.

Two checkouts give the same tables exactly when their outputs are equal::

    python3 scripts/tsv_matrix.py /path/to/other/checkout > before.txt
    python3 scripts/tsv_matrix.py > after.txt
    diff before.txt after.txt

The optional argument is the checkout whose ``src/`` and ``models/`` are
used; it defaults to the one holding this script.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

MODELS = ("models/s3.model", "models/s4.model", "models/s3xs3.model")
SUITES = ("assoc", "comm", "frobenius", "golden", "signs", "vanishing")
STDIN_SUITES = ("signs", "assoc")  # the suites that build δ!
STDIN = {  # name: (model text, top --max-degree)
    "s3xs4": ("algebra S3xS4\ngen a 3\ngen x 4\ngen y 7\nd y = x^2\n", 12),
    "s4-rational": ("algebra S4q\ngen x 4\ngen y 7\nd y = 2/3*x^2\n", 14),
    "a4b6-rational": ("algebra A4B6q\ngen a 4\ngen b 6\ngen y 7\ngen z 11\n"
                      "d y = a^2\nd z = 1/2*b^2 - 3/5*a^3\n", 10),
    "s3xs5xs7": ("algebra S3xS5xS7\ngen a 3\ngen b 5\ngen c 7\n", 14),
    "s3xs4-reordered": ("algebra S3xS4r\ngen y 7\ngen x 4\ngen a 3\nd y = x^2\n", 12),
}
REJECTED = {  # name: model text the coproduct rejects
    # a generator of degree 2: the sphere model M_{S^1} takes it, γ!'s disk
    # model does not
    "x2": "gen x 2\n",
    "x4-s2_x2": "gen x 4\ngen s2_x 2\n",
    # a generator named like the suspension s1_x that M_{S^1} derives
    "x4-s1_x7": "gen x 4\ngen s1_x 7\nd s1_x = x^2\n",
    # two such clashes, s1_x and s1_y, with an even generator: the first
    # suspension label in V's order that clashes is the one reported
    "x4-y7-s1_y6-s1_x3": "gen x 4\ngen y 7\ngen s1_y 6\ngen s1_x 3\nd y = x^2\n",
    # a clash on a model with no even generator, where γ! is built
    "x3-s1_x5": "gen x 3\ngen s1_x 5\n",
}
INFO = {  # name: model text with info overrides of m and m̄
    "s4-info": "algebra S4i\ngen x 4\ngen y 7\nd y = x^2\ninfo m = 2\n",
    "s3-info": "algebra S3i\ngen x 3\ninfo m = 1\ninfo mbar = -3\n",
    "s3xs4-info": "algebra S3xS4i\ngen a 3\ngen x 4\ngen y 7\nd y = x^2\ninfo m = 1\n",
    # a wrong parity, m ≢ dim V and m̄ ≢ dim V (mod 2)
    "s3-bad-m": "gen x 3\ninfo m = 2\n",
    "s4-bad-mbar": "algebra S4\ngen x 4\ngen y 7\nd y = x^2\ninfo mbar = 1\n",
}
WIDE = {"x2-wide": "gen x 2\n"}  # name: model text of the deep cohomology row
WIDE_COMMAND = ["cohomology", "-", "--max-degree", "300", "--format", "tsv"]
INFO_COMMANDS = [[op, "-", "--homology", "--format", "tsv"]
                 for op in ("brane-product", "brane-coproduct")]
INFO_COMMANDS.extend(["verify", "-", "--suite", suite] for suite in SUITES)
TEXTS = {name: text for name, (text, _) in STDIN.items()} | REJECTED | INFO | WIDE


def _tables(model: str, top: int) -> list[list[str]]:
    return [[op, model, "--max-degree", str(d), "--format", "tsv", *homology]
            for op in ("brane-product", "brane-coproduct")
            for homology in ([], ["--homology"])
            for d in range(top + 1)]


def table_format(model: str) -> list[list[str]]:
    """The commands on a model file in the default --format table."""
    return [[op, model, "--max-degree", "8", "--homology"]
            for op in ("brane-product", "brane-coproduct")
            ] + [["cohomology", model, "--max-degree", "8"]]


def commands() -> list[tuple[list[str], str | None]]:
    """(argv, name of the STDIN model the command reads, or None)."""
    out = []
    for model in MODELS:
        out.extend(_tables(model, 14))
        for kind in ("sphere", "disk"):
            for k in (1, 2, 3):
                out.append([f"{kind}-model", model, "--k", str(k), "--format", "tsv"])
        out.append(["path-model", model, "--format", "tsv"])
        out.append(["cohomology", model, "--max-degree", "12", "--format", "tsv"])
        out.append(["check-dga", model])
        for suite in SUITES:
            out.append(["verify", model, "--suite", suite])
        out.append(["brane-product", model, "--k", "3", "--format", "tsv"])
        out.extend(table_format(model))
    checks = [["verify", "-", "--suite", suite] for suite in STDIN_SUITES]
    checks.append(["check-dga", "-"])
    return [(argv, None) for argv in out] + [
        (argv, name) for name, (_, top) in STDIN.items()
        for argv in _tables("-", top) + checks
    ] + [(["brane-coproduct", "-", "--format", "tsv"], name) for name in REJECTED] + [
        (argv, name) for name in INFO for argv in INFO_COMMANDS] + [
        (WIDE_COMMAND, name) for name in WIDE]


def label(argv: list[str], name: str | None) -> str:
    """A command's label in the output: argv, then ``< name`` for stdin."""
    return " ".join(argv) + (f" < {name}" if name else "")


def run(main, argv: list[str], stdin: str = "") -> tuple[int, bytes, bytes]:
    stdout, stderr = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(stdin)
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, stdout.getvalue().encode(), stderr.getvalue().encode()


def main() -> None:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent.parent)
    os.chdir(root)
    sys.path.insert(0, str(root.resolve() / "src"))
    from branecalc.cli import main as cli_main

    for argv, name in commands():
        code, out, err = run(cli_main, argv, TEXTS[name] if name else "")
        print(code, hashlib.sha256(out).hexdigest(), hashlib.sha256(err).hexdigest(),
              label(argv, name), sep="\t", flush=True)


if __name__ == "__main__":
    main()
