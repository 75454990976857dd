"""The runtime defines its records without dataclasses.

Each CLI command is its own process, so importing branecalc is part of
every command's time.  A ``@dataclass`` exec-compiles its methods when its
class is defined, and ``dataclasses`` pulls in ``inspect``; the records are
``collections.namedtuple`` subclasses and plain classes instead.  A fresh
interpreter, started without site-packages (-S), imports the CLI and runs
one product; neither module may then be loaded.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from branecalc import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["brane-product", "models/s4.model", "--max-degree", "4"])
print(json.dumps({"code": code,
                  "loaded": [m for m in ("dataclasses", "inspect") if m in sys.modules]}))
"""


def test_a_command_loads_neither_dataclasses_nor_inspect():
    proc = subprocess.run(
        [sys.executable, "-S", "-c", SCRIPT, str(ROOT / "src")],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout)
    assert out == {"code": 0, "loaded": []}
