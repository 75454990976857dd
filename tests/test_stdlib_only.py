"""The runtime imports only the standard library.

A fresh interpreter, started without site-packages (-S, so no .pth hook of
the environment loads anything), imports every branecalc module and runs
one CLI command; every top-level module it then holds must be branecalc or
a standard-library module.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import branecalc
for info in pkgutil.iter_modules(branecalc.__path__):
    __import__(f"branecalc.{info.name}")
from branecalc import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["check-dga", "models/s4.model"])
print(json.dumps({"code": code,
                  "modules": sorted({m.split(".")[0] for m in sys.modules})}))
"""


def test_runtime_imports_only_the_standard_library():
    proc = subprocess.run(
        [sys.executable, "-S", "-c", SCRIPT, str(ROOT / "src")],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout)
    assert out["code"] == 0
    assert "branecalc" in out["modules"]
    foreign = [m for m in out["modules"]
               if m not in ("branecalc", "__main__") and m not in sys.stdlib_module_names]
    assert foreign == []
