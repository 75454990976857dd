"""scripts/ab_bench.py's summary: medians, quartiles and pairs won.

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


def test_benchmark_directions_cover_every_end_to_end_metric():
    better = ab_bench.directions(ROOT)
    assert better["pass_s"] == "lower" and better["success_rate"] == "higher"
    assert set(better) >= {"setup_s", "op_s.p50", "op_s.p90", "peak_rss_mb"}
