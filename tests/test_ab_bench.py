"""scripts/ab_bench.py's summary: medians, quartiles, the relative change
of the medians and pairs won.

Running the benchmark itself takes seconds per side, so only the summary
is checked here, on hand-made result lines.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "scripts" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)


def result(pass_s, rate):
    return {"metrics": {"pass_s": {"value": pass_s, "unit": "s"},
                        "success_rate": {"value": rate, "unit": "ratio"}}}


def test_pairs_won_follow_each_metrics_direction():
    runs = {"parent": [result(2.0, 1.0), result(3.0, 0.5), result(4.0, 1.0)],
            "change": [result(1.0, 1.0), result(3.5, 1.0), result(2.0, 0.9)]}
    lines = ab_bench.summarize(runs, {"pass_s": "lower", "success_rate": "higher"})
    rows = {line.split()[0]: line for line in lines[1:]}
    # lower wins in pairs 1 and 3; higher wins in pair 2 only, a tie in pair 1
    assert rows["pass_s"].endswith("2 of 3")
    assert rows["success_rate"].endswith("1 of 3")
    assert rows["pass_s"].split()[1:3] == ["3", "[2,"]


def test_relative_change_of_the_medians_keeps_its_sign_whatever_better_is():
    # pass_s (lower is better) falls 3 → 2.4; success_rate (higher is
    # better) rises 0.8 → 1.0: the change reads change / parent − 1 either way
    runs = {"parent": [result(3.0, 0.8), result(2.0, 0.8), result(4.0, 0.5)],
            "change": [result(2.4, 1.0), result(2.0, 1.0), result(2.5, 0.9)]}
    lines = ab_bench.summarize(runs, {"pass_s": "lower", "success_rate": "higher"})
    assert lines[0].split()[-2:] == ["change", "won"]
    rows = {line.split()[0]: line.split() for line in lines[1:]}
    assert rows["pass_s"][-4:] == ["-20.0%", "2", "of", "3"]
    assert rows["success_rate"][-4:] == ["+25.0%", "3", "of", "3"]


def test_benchmark_directions_cover_every_end_to_end_metric():
    better = ab_bench.directions(ROOT)
    assert better["pass_s"] == "lower" and better["success_rate"] == "higher"
    assert set(better) >= {"setup_s", "op_s.p50", "op_s.p90", "peak_rss_mb"}
