"""Alternating A/B runs of the benchmark on two checkouts.

    python3 scripts/ab_bench.py PARENT CHANGE --workload W[,W...] --pairs N
        --seconds S [--seed K] [--save FILE]

--workload names one workload or a comma-separated list of them, such as
``product-d10,cli-small,coproduct-s4-d14``; the workloads run in turn, each
with its own N pairs.  Each pair runs ``branebench/run.py --trace 0`` once
in each checkout, one after the other; the side that runs first alternates
from pair to pair, so a drift of the machine's speed falls on both sides
alike.  After each workload's pairs it prints, for every end-to-end
metric, each side's median with its quartiles, the relative change of the
medians (change / parent − 1, in per cent) and the number of pairs the
change won (by the metric's ``better`` in the change's BENCHMARK.json; a
tie wins for neither).  With --save, the last pair's two reports of each
workload (``branebench/out/BENCH_<W>_trace0.json`` of each checkout) are
merged into FILE under "parent" and "change", keyed by the workload, the
layout of the committed ``BENCH_pr*.json`` files.

Standard library only; it runs each checkout's own ``branebench/run.py`` in
a child process with that checkout as its working directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One --trace 0 run in root; its result line, with its report."""
    cmd = [sys.executable, "branebench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(cmd)} in {root} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    result = json.loads(lines[-1])
    report = root / "branebench" / "out" / f"BENCH_{workload}_trace0.json"
    result["report"] = json.loads(report.read_text(encoding="utf-8"))
    return result


def directions(root: Path) -> dict[str, str]:
    """{metric: "lower" | "higher"} over the end-to-end metrics."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def summarize(runs: dict[str, list[dict]], better: dict[str, str]) -> list[str]:
    """One line per metric: medians [quartiles] of both sides, the relative
    change of the medians, pairs won."""
    lines = [f"{'metric':12s} {'parent median [q1, q3]':>36s} "
             f"{'change median [q1, q3]':>36s} {'change':>8s}  won"]
    for name, direction in better.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in SIDES}
        cells, medians = [], []
        for side in SIDES:
            xs = values[side]
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
            medians.append(statistics.median(xs))
            cells.append(f"{medians[-1]:.6g} [{q1:.6g}, {q3:.6g}]")
        before, after = medians
        rel = f"{100 * (after / before - 1):+.1f}%" if before else "n/a"
        sign = 1 if direction == "lower" else -1
        won = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        lines.append(f"{name:12s} {cells[0]:>36s} {cells[1]:>36s} {rel:>8s}  "
                     f"{won} of {len(values['change'])}")
    return lines


def save(path: Path, workload: str, last: dict[str, dict]) -> None:
    """Merge the last pair's reports into path, under each side and workload."""
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    data.setdefault("description", "branebench/run.py --trace 0 reports of the "
                    "parent commit and of the change, from the last alternating pair")
    for side in SIDES:
        data.setdefault(side, {})[workload] = last[side]["report"]
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def workload_list(text: str) -> list[str]:
    """The workloads of --workload: names separated by commas, each once."""
    names = [name.strip() for name in text.split(",")]
    if not all(names):
        raise argparse.ArgumentTypeError(f"empty workload name in {text!r}")
    if len(set(names)) < len(names):
        raise argparse.ArgumentTypeError(f"a workload is named twice in {text!r}")
    return names


def run_pairs(roots: dict[str, Path], workload: str, pairs: int, seed: int,
              seconds: float) -> dict[str, list[dict]]:
    """pairs alternating pairs of runs of workload; each side's results."""
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(roots[side], workload, seed, seconds)
            runs[side].append(result)
            if not result["correct"] or result["failed"]:
                print(f"warning: {workload} pair {i + 1} {side}: {result['failed']} "
                      f"of {result['attempted']} operations failed", file=sys.stderr)
        p, c = (runs[s][-1]["metrics"]["pass_s"]["value"] for s in SIDES)
        print(f"{workload} pair {i + 1}/{pairs} ({order[0]} first): pass_s "
              f"{p:.6g} -> {c:.6g}", flush=True)
    return runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True, type=workload_list,
                    help="a workload, or a comma-separated list of them")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--save", type=Path, help="merge the last pair's reports here")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    better = directions(roots["change"])
    for workload in args.workload:
        runs = run_pairs(roots, workload, args.pairs, args.seed, args.seconds)
        print(f"{workload}, seed {args.seed}, {args.pairs} pairs of "
              f"{args.seconds:g} s runs")
        print("\n".join(summarize(runs, better)), flush=True)
        if args.save:
            save(args.save, workload, {side: runs[side][-1] for side in SIDES})
    return 0


if __name__ == "__main__":
    sys.exit(main())
