"""Alternating A/B runs of the heavy CLI commands on two checkouts.

    python3 scripts/heavy_bench.py PARENT CHANGE [--pairs N] [--save FILE]

The commands in ``HEAVY`` are each too slow for a benchmark workload and
read their model from stdin, so a parent checkout runs them unchanged:
the ``ab`` product at degree 36, the ``ab`` associativity suite at degree
28 and the (S³)⁴ coproduct at degree 14, about 2.6 s per side on a
2-vCPU Xeon VM, so the default 10 pairs take about a minute.

Each pair runs every command once in each checkout, as ``python3 -m
branecalc.cli`` in a child process with the checkout as its working
directory and its ``src`` on PYTHONPATH; the side that runs first
alternates from pair to pair, so a drift of the machine's speed falls on
both sides alike.  Each run records the child's process time (user +
system) and its max RSS, read from ``os.wait4``.  The two sides' stdout
must be equal byte for byte, and both must exit 0: any difference stops
the script with exit code 1.

After the pairs it prints, per command and metric, each side's median
with its quartiles, the relative change of the medians and the pairs the
change won (lower is better for both), as ``ab_bench.py`` does.  With
--save, every run's values are merged into FILE under the key "heavy",
beside what ``ab_bench.py --save`` wrote there.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_bench import SIDES, summarize  # noqa: E402

AB = "gen a 4\ngen b 6\ngen y 7\ngen z 11\nd y = a^2\nd z = b^2 + a^3\n"
S3_4 = "gen a 3\ngen b 3\ngen c 3\ngen e 3\n"
HEAVY = {  # name: (argv after ``branecalc.cli``, the model read from stdin)
    "product-ab-d36": (["brane-product", "-", "--max-degree", "36", "--format", "tsv"], AB),
    "assoc-ab-d28": (["verify", "-", "--suite", "assoc", "--max-degree", "28"], AB),
    "coproduct-s3^4-d14": (["brane-coproduct", "-", "--max-degree", "14", "--format", "tsv"],
                           S3_4),
}
METRICS = {"cpu_s": "lower", "max_rss_mb": "lower"}


def run_once(root: Path, argv: list[str], stdin: str) -> dict:
    """One run of ``branecalc.cli argv`` in root, fed stdin: its exit code,
    stdout bytes, process time and max RSS."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, "-m", "branecalc.cli", *argv], cwd=root,
                                env=env, stdin=subprocess.PIPE, stdout=out, stderr=err)
        proc.stdin.write(stdin.encode())
        proc.stdin.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {"code": proc.returncode, "stdout": out.read(), "stderr": err.read(),
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "max_rss_mb": usage.ru_maxrss / 1024}  # ru_maxrss is in KiB


def run_pairs(roots: dict[str, Path], pairs: int) -> dict[str, dict[str, list[dict]]]:
    """{command: {side: results}} over pairs alternating pairs; exits 1 on
    a failed run or a stdout difference."""
    runs = {name: {side: [] for side in SIDES} for name in HEAVY}
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for name, (argv, stdin) in HEAVY.items():
            results = {side: run_once(roots[side], argv, stdin) for side in order}
            for side, result in results.items():
                if result["code"] != 0:
                    sys.exit(f"error: {name} exited {result['code']} in {roots[side]}:\n"
                             f"{result['stderr'].decode(errors='replace')}")
                runs[name][side].append(
                    {"metrics": {m: {"value": result[m]} for m in METRICS}})
            if results["parent"]["stdout"] != results["change"]["stdout"]:
                sys.exit(f"error: {name} pair {i + 1}: stdout differs between the checkouts")
        print(f"pair {i + 1}/{pairs} ({order[0]} first): " + ", ".join(
            f"{name} {runs[name]['parent'][-1]['metrics']['cpu_s']['value']:.3f} -> "
            f"{runs[name]['change'][-1]['metrics']['cpu_s']['value']:.3f} s"
            for name in HEAVY), flush=True)
    return runs


def save(path: Path, runs: dict[str, dict[str, list[dict]]]) -> None:
    """Merge every run's values into path under "heavy"."""
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    data["heavy"] = {
        "description": "scripts/heavy_bench.py: process time and max RSS of each run "
                       "of each command, in pair order",
        **{name: {"argv": HEAVY[name][0],
                  **{side: {m: [r["metrics"][m]["value"] for r in runs[name][side]]
                            for m in METRICS} for side in SIDES}}
           for name in HEAVY}}
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--save", type=Path, help="merge every run's values here")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = run_pairs(roots, args.pairs)
    for name in HEAVY:
        print(f"{name}, {args.pairs} pairs; stdout identical")
        print("\n".join(summarize(runs[name], METRICS)), flush=True)
    if args.save:
        save(args.save, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
