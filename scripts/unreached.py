"""List the functions of ``src/branecalc`` that no command of the TSV matrix
enters.

Runs the 566 commands of ``scripts/tsv_matrix.py`` in-process, through its
own ``commands`` and ``run``, under ``sys.setprofile``, and records the code
object of every Python call.  Then it prints each function and method
defined in ``src/branecalc`` whose code was never entered, one per line, as
``module:line  qualified name  (n lines)``, and a total.  Lambdas and
comprehensions are not listed.  A function listed here is either library
API that no command reaches, an error path the matrix does not exercise, or
code that only tests call::

    python3 scripts/unreached.py [CHECKOUT]

The optional argument is the checkout whose ``src/`` and ``models/`` are
used; it defaults to the one holding this script.  A run takes ~15 s.  At
this version it lists 12 functions, 70 lines: library API that no command
reaches (``make_model``, ``print_model``, ``GradedAlgebra.pack``, ...),
error paths and debugging aids.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("tsv_matrix", HERE / "tsv_matrix.py")
tsv_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tsv_matrix)


def definitions(path: Path) -> dict[int, tuple[str, int]]:
    """{first line of the code object: (qualified name, line count)} of the
    functions in one source file; a decorated function's code starts at its
    first decorator."""
    out = {}

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                out[first] = name, child.end_lineno - first + 1
                walk(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text(), str(path)), "")
    return out


def main() -> None:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else HERE.parent).resolve()
    os.chdir(root)
    package = root / "src" / "branecalc"
    sys.path.insert(0, str(root / "src"))
    from branecalc.cli import main as cli_main

    entered: set[tuple[str, int]] = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    commands = tsv_matrix.commands()
    sys.setprofile(profile)
    try:
        for argv, name in commands:
            tsv_matrix.run(cli_main, argv, tsv_matrix.TEXTS[name] if name else "")
    finally:
        sys.setprofile(None)
        sys.stdin = sys.__stdin__

    count = lines = 0
    for path in sorted(package.glob("*.py")):
        for first, (name, size) in sorted(definitions(path).items()):
            if (str(path), first) not in entered:
                print(f"{path.stem}:{first}\t{name}\t({size} lines)")
                count += 1
                lines += size
    print(f"{count} functions never entered, {lines} lines, over {len(commands)} commands")


if __name__ == "__main__":
    main()
