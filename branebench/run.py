"""branecalc benchmark: drives the CLI in-process and reports metrics.

    python3 branebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  One process, one client, a closed loop:
each operation is one ``branecalc.cli.main(argv)`` call, made after the
previous one returns.  A pass runs every operation of the workload once, in
an order shuffled by the seed.  Every output is compared with its reference
exit code and stdout digest in ``references.json``.

With ``--trace 0`` the run measures set-up and then repeats passes for the
given seconds; the last line of stdout is a JSON object with the end-to-end
metrics.  With ``--trace 1`` it spends half the time on untraced passes and
half on passes under the outside-in tracer, and reports the per-layer
metrics.  The environment, samples and (traced) spans are written under
``branebench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

from layers import METRICS as LAYER_METRICS, TARGETS, pass_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# name -> unit; must match the end_to_end list in BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}
SETUP_REPEATS = 11
REFERENCE_S = 0.0025  # every timing is scaled to a machine where the loop below takes this
PROBE_PERIOD_S = 0.1  # how often the machine's speed is sampled during passes
MIN_PASSES = 3  # per timed phase, even when a pass outlasts --seconds
TRACE_MIN_PASSES = 2  # per phase of a traced run, which has two phases


def load_references(path: Path = HERE / "references.json") -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_op(main, argv: list[str]) -> tuple[int, str]:
    """One CLI call with stdout and stderr captured; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse exits on usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue()


def reference_loop_s() -> float:
    """Wall time of one fixed pure-stdlib job: exact Gaussian elimination of
    an 8×8 rational matrix.  It shares no code with branecalc, so only the
    machine's speed moves it.  Changing it re-bases every reported time."""
    n = 8
    rows = [[Fraction((i * 7 + j * 13) % 11 - 5, 1 + (i + j) % 5) for j in range(n)]
            for i in range(n)]
    t0 = time.perf_counter()
    for c in range(n):
        piv = next(i for i in range(c, n) if rows[i][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return time.perf_counter() - t0


def machine_speed() -> float:
    """The reference loop's time right now (best of two)."""
    return min(reference_loop_s(), reference_loop_s())


class SpeedProbe:
    """Times the reference loop every PROBE_PERIOD_S from a SIGALRM handler,
    so the machine's speed is also sampled in the middle of long operations.
    The handler runs in the main thread between bytecodes; the time it takes
    is tallied in ``spent``, and ``clock`` stands still while it runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(reference_loop_s())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


@dataclass
class Passes:
    """Timings scaled to the reference speed, plus what they were scaled from."""
    pass_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    wall_pass_s: list[float] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)  # per pass
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    span_ends: list[int] = field(default_factory=list)  # per pass, under a tracer


def run_passes(main, ops, refs: dict, rng: random.Random, seconds: float,
               min_passes: int = MIN_PASSES, tracer: Tracer | None = None,
               probe: SpeedProbe | None = None) -> Passes:
    """Closed-loop passes until another pass would overrun ``seconds``.

    A SpeedProbe samples the reference loop at the start of each pass and
    every PROBE_PERIOD_S during it; the pass and its operations, timed on the
    probe's clock, are scaled by the mean of those samples.  Under a tracer,
    each operation gets a new operation id and the index of the tracer's
    last span is noted after each pass."""
    res = Passes()
    start = time.perf_counter()
    with probe or SpeedProbe() as probe:
        while True:
            order = list(ops)
            rng.shuffle(order)
            op_s = []
            first = len(probe.samples)
            probe.samples.append(reference_loop_s())
            t_pass = probe.clock()
            for op in order:
                if tracer is not None:
                    tracer.op += 1
                res.attempted += 1
                t0 = probe.clock()
                try:
                    rc, stdout = run_op(main, op.argv)
                except Exception:  # a crash is a failed operation, not a dead run
                    op_s.append(probe.clock() - t0)
                    res.failed += 1
                    res.failures.append(f"{op.id}: {traceback.format_exc(limit=3)}")
                    continue
                op_s.append(probe.clock() - t0)
                ref = refs[op.id]
                if rc != ref["exit"] or digest(stdout) != ref["stdout_sha256"]:
                    res.failed += 1
                    res.failures.append(f"{op.id}: exit {rc}, stdout sha256 {digest(stdout)}")
            wall = probe.clock() - t_pass
            if tracer is not None:
                res.span_ends.append(len(tracer.spans))
            factor = REFERENCE_S / statistics.fmean(probe.samples[first:])
            res.wall_pass_s.append(wall)
            res.factors.append(factor)
            res.pass_s.append(wall * factor)
            res.op_s.extend(t * factor for t in op_s)
            elapsed = time.perf_counter() - start
            if len(res.pass_s) >= min_passes and elapsed + statistics.median(res.wall_pass_s) > seconds:
                return res


def timed_setup(models) -> tuple[float, object]:
    """Import branecalc afresh, then parse and check() each model file;
    returns the wall time and the freshly imported ``branecalc.cli``."""
    for name in [n for n in sys.modules if n == "branecalc" or n.startswith("branecalc.")]:
        del sys.modules[name]
    gc.collect()
    t0 = time.perf_counter()
    pkg = importlib.import_module("branecalc")
    for path in models:
        with open(path, encoding="utf-8") as fh:
            pkg.cli.parse_model(fh.read()).model.check()
    return time.perf_counter() - t0, pkg.cli


def measure_setup(models, repeats: int) -> tuple[list[float], list[float], object]:
    """Set-up times, each scaled by the reference loop's time before and after
    it; their wall times; and the cli module of the last set-up."""
    scaled, wall = [], []
    before = machine_speed()
    for _ in range(repeats):
        seconds, cli = timed_setup(models)
        after = machine_speed()
        wall.append(seconds)
        scaled.append(seconds * REFERENCE_S / ((before + after) / 2))
        before = after
    return scaled, wall, cli


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile by nearest rank: the smallest sample with at least
    q% of the samples at or below it.  It is always a measured sample, and
    it stays put on workloads whose operations form separate clusters of
    latency, where an interpolated median would fall between them."""
    ranked = sorted(values)
    return ranked[max(math.ceil(q / 100 * len(ranked)), 1) - 1]


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (1024 * 1024) if sys.platform == "darwin" else rss / 1024


def end_to_end_metrics(setups: list[float], res: Passes) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(res.pass_s),
        "op_s.p50": percentile(res.op_s, 50),
        "op_s.p90": percentile(res.op_s, 90),
        "peak_rss_mb": peak_rss_mb(),
        "success_rate": 1 - res.failed / res.attempted,
    }


def result_line(correct: bool, res: Passes, values: dict, units: dict) -> dict:
    return {
        "correct": correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


# ---------------------------------------------------------------------------
# environment


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tree_sha256(top: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(top.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(top).as_posix().encode() + b"\0")
            h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args) -> dict:
    return {
        "commit": git_commit(ROOT),
        "src_sha256": tree_sha256(ROOT / "src"),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# entry point


def plain_run(cli, workload, refs, rng, seconds, setups) -> tuple[Passes, dict, dict]:
    """Untraced passes; returns them, the end-to-end metrics and sample counts."""
    res = run_passes(cli.main, workload.ops, refs, rng, seconds)
    print(f"error_rate {res.failed / res.attempted} "
          f"({res.failed} of {res.attempted} operations failed)")
    if len(res.op_s) < 100:
        print(f"note: op_s.p90 rests on {len(res.op_s)} samples, "
              "fewer than ten of them beyond it")
    samples = {"setup_s": len(setups), "pass_s": len(res.pass_s),
               "op_s.p50": len(res.op_s), "op_s.p90": len(res.op_s),
               "peak_rss_mb": 1, "success_rate": res.attempted}
    return res, end_to_end_metrics(setups, res), samples


def traced_run(cli, workload, refs, rng, seconds, report) -> tuple[Passes, dict, dict]:
    """Half the time untraced, half traced; returns all passes, the
    per-layer metrics and sample counts.  Spans go to the out directory."""
    plain = run_passes(cli.main, workload.ops, refs, rng, seconds / 2, TRACE_MIN_PASSES)
    probe = SpeedProbe()
    tracer = Tracer(clock=probe.clock)  # spans leave out the probe's time too
    tracer.install(TARGETS)
    try:  # cli.main is the traced wrapper from here on
        res = run_passes(cli.main, workload.ops, refs, rng, seconds / 2,
                         TRACE_MIN_PASSES, tracer, probe)
    finally:
        left = tracer.restore()
    starts = [0] + res.span_ends[:-1]
    per_pass = [pass_metrics(tracer.spans[a:b], wall, factor)
                for a, b, wall, factor in zip(starts, res.span_ends, res.wall_pass_s,
                                              res.factors)]
    values = {k: statistics.median(p[k] for p in per_pass)
              for k in LAYER_METRICS if k != "trace.overhead"}
    values["trace.overhead"] = (statistics.median(res.pass_s)
                                / statistics.median(plain.pass_s) - 1)

    for name in ("attempted", "failed"):
        setattr(res, name, getattr(res, name) + getattr(plain, name))
    res.failures += plain.failures
    if left:
        res.failures.append(f"bindings left wrapped: {', '.join(left)}")
    if tracer.missing:
        print(f"warning: targets not found: {', '.join(tracer.missing)}", file=sys.stderr)
    report.update(missing_targets=tracer.missing, left_wrapped=left,
                  untraced_pass_samples=plain.pass_s,
                  untraced_wall_pass_samples=plain.wall_pass_s)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans_{workload.name}.jsonl", "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(asdict(s)) + "\n")
    return res, values, dict.fromkeys(LAYER_METRICS, len(res.pass_s))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "branecalc" / "__init__.py").is_file():
        print(f"error: no branecalc sources under {ROOT / 'src'}; "
              "run from a full checkout of the repository", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    refs = load_references()
    missing_refs = [op.id for op in workload.ops if op.id not in refs]
    if missing_refs:
        print(f"error: no reference for {missing_refs}; run branebench/record.py",
              file=sys.stderr)
        return 2
    env = environment(args)
    print("env", json.dumps(env))
    rng = random.Random(args.seed)

    setups, wall_setups, cli = measure_setup(workload.models,
                                             1 if args.trace else SETUP_REPEATS)
    report: dict = {"env": env, "wall_setup_samples": wall_setups}
    if args.trace:
        res, values, samples = traced_run(cli, workload, refs, rng, args.seconds, report)
        units = {k: unit for k, (unit, _) in LAYER_METRICS.items()}
    else:
        res, values, samples = plain_run(cli, workload, refs, rng, args.seconds, setups)
        units = END_TO_END
    # a traced run that left a binding wrapped has a failure but no failed call
    line = result_line(not res.failures, res, values, units)

    for failure in res.failures[:10]:
        print(f"failed: {failure}", file=sys.stderr)
    for name, metric in line["metrics"].items():
        print(f"{name:34s} {metric['value']:<22.6g} {metric['unit']:6s}"
              f" ({samples[name]} samples)")
    print(f"machine: reference loop {REFERENCE_S / statistics.median(res.factors) * 1000:.2f} ms"
          f" (times are scaled to {REFERENCE_S * 1000:g} ms); wall pass_s median"
          f" {statistics.median(res.wall_pass_s):.6g} s")
    report.update(result=line, samples=samples, failures=res.failures,
                  setup_samples=setups, pass_samples=res.pass_s, op_samples=res.op_s,
                  wall_pass_samples=res.wall_pass_s, scale_factors=res.factors)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"BENCH_{args.workload}_trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
