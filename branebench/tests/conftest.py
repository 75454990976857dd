import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for p in (BENCH, ROOT / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))
