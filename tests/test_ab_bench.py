"""scripts/ab_bench.py's summary: medians, quartiles, the relative change
of the medians and pairs won; and its --workload list.

Running the benchmark itself takes seconds per side, so only the summary
is checked here, on hand-made result lines, and the workload list with a
stand-in for one run.
"""

import importlib.util
import json
from pathlib import Path

import pytest

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


def test_a_workload_list_is_split_on_commas():
    assert ab_bench.workload_list("cli-small") == ["cli-small"]
    assert ab_bench.workload_list("product-d10,cli-small, coproduct-s4-d14") == [
        "product-d10", "cli-small", "coproduct-s4-d14"]


@pytest.mark.parametrize("text", ["", "cli-small,", "product-d10,,cli-small",
                                  "cli-small,cli-small"])
def test_a_malformed_workload_list_is_a_usage_error(text, capsys):
    with pytest.raises(SystemExit) as exc:
        ab_bench.main(["parent", "change", "--workload", text,
                       "--pairs", "1", "--seconds", "1"])
    assert exc.value.code == 2
    assert "--workload" in capsys.readouterr().err


def test_each_workload_runs_its_pairs_in_turn_and_save_merges_them(
        tmp_path, monkeypatch, capsys):
    roots = {side: tmp_path / side for side in ab_bench.SIDES}
    for root in roots.values():
        root.mkdir()
    spec = (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    (roots["change"] / "BENCHMARK.json").write_text(spec, encoding="utf-8")
    names = ab_bench.directions(ROOT)
    calls = []

    def run_once(root, workload, seed, seconds):
        calls.append((root.name, workload))
        value = 2.0 if root.name == "parent" else 1.0
        return {"correct": True, "failed": 0, "attempted": 1,
                "metrics": {name: {"value": value} for name in names},
                "report": {"side": root.name, "workload": workload}}

    monkeypatch.setattr(ab_bench, "run_once", run_once)
    saved = tmp_path / "BENCH.json"
    saved.write_text(json.dumps({"parent": {"earlier": {}}}), encoding="utf-8")
    assert ab_bench.main([str(roots["parent"]), str(roots["change"]),
                          "--workload", "product-d10,cli-small", "--pairs", "2",
                          "--seconds", "1", "--save", str(saved)]) == 0
    # each workload's two pairs, the side that runs first alternating
    order = ["parent", "change", "change", "parent"]
    assert calls == [(side, w) for w in ("product-d10", "cli-small") for side in order]
    out = capsys.readouterr().out
    assert out.index("product-d10, seed 1, 2 pairs") < out.index("cli-small, seed 1, 2 pairs")
    # one summary row per workload, after that workload's pair lines
    assert sum(line.startswith("pass_s ") for line in out.splitlines()) == 2
    data = json.loads(saved.read_text(encoding="utf-8"))
    assert set(data["parent"]) == {"earlier", "product-d10", "cli-small"}
    assert data["change"] == {w: {"side": "change", "workload": w}
                              for w in ("product-d10", "cli-small")}
