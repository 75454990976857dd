"""Record the reference output of every benchmark operation.

    python3 branebench/record.py

Runs each operation once from the repository root, and runs the independent
check in ``checks.py`` that the operation names.  Only if every check passes
does it write ``references.json``: each operation's exit code and the
sha256 of its stdout.  Outputs that are still correct leave the file
unchanged, so ``git diff`` on it shows any output that moved.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import checks  # noqa: E402
from run import digest, run_op  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from branecalc import cli

    refs = {}
    bad = 0
    for workload in WORKLOADS.values():
        for op in workload.ops:
            rc, stdout = run_op(cli.main, op.argv)
            failures = checks.check(op, rc, stdout)
            status = "ok" if not failures else "FAIL"
            print(f"{status:4s} {op.id:22s} [{op.check}]")
            for f in failures:
                print(f"     {f}")
            bad += bool(failures)
            refs[op.id] = {"command": op.command, "check": op.check,
                           "exit": rc, "stdout_sha256": digest(stdout)}
    if bad:
        print(f"{bad} operations failed their check; nothing recorded")
        return 1
    path = HERE / "references.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(refs)} references in {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
