"""Fingerprint the CLI's output over a fixed matrix of commands.

Runs 277 commands in-process through ``branecalc.cli.main`` and prints one
line per command: exit code, sha256 of stdout, sha256 of stderr, argv.  The
commands, each on models/s3.model, models/s4.model and models/s3xs3.model:

* ``brane-product`` and ``brane-coproduct`` with ``--format tsv``, with and
  without ``--homology``, at ``--max-degree`` 0 to 14;
* the model dumps ``sphere-model`` and ``disk-model`` at ``--k`` 1, 2, 3 and
  ``path-model``;
* ``cohomology --max-degree 12``;
* the six ``verify`` suites, and ``brane-product --k 3``;

and, on the S³×S⁴ model below, read from stdin (``-``) so that it needs no
model file and a parent checkout runs it unchanged, ``brane-product`` and
``brane-coproduct`` with and without ``--homology`` at ``--max-degree`` 0 to
12: a model with generators of both parities.

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
S3XS4 = "algebra S3xS4\ngen a 3\ngen x 4\ngen y 7\nd y = x^2\n"


def _tables(model: str, top: int) -> list[list[str]]:
    return [[op, model, "--max-degree", str(d), "--format", "tsv", *homology]
            for op in ("brane-product", "brane-coproduct")
            for homology in ([], ["--homology"])
            for d in range(top + 1)]


def commands() -> list[list[str]]:
    out = []
    for model in MODELS:
        out.extend(_tables(model, 14))
        for kind in ("sphere", "disk"):
            for k in (1, 2, 3):
                out.append([f"{kind}-model", model, "--k", str(k), "--format", "tsv"])
        out.append(["path-model", model, "--format", "tsv"])
        out.append(["cohomology", model, "--max-degree", "12", "--format", "tsv"])
        for suite in SUITES:
            out.append(["verify", model, "--suite", suite])
        out.append(["brane-product", model, "--k", "3", "--format", "tsv"])
    return out + _tables("-", 12)


def run(main, argv: list[str]) -> tuple[int, bytes, bytes]:
    stdout, stderr = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(S3XS4)  # what the "-" commands read
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

    for argv in commands():
        code, out, err = run(cli_main, argv)
        print(code, hashlib.sha256(out).hexdigest(), hashlib.sha256(err).hexdigest(),
              " ".join(argv), sep="\t", flush=True)


if __name__ == "__main__":
    main()
