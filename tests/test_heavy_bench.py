"""scripts/heavy_bench.py with a stand-in for one child run: the order of
the runs, the stdout comparison, the summary and --save.

A real run takes seconds per command and side, so the child process is
replaced here, as tests/test_ab_bench.py replaces a benchmark run; one
real child run, of a stand-in checkout, checks what run_once reads.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("heavy_bench", ROOT / "scripts" / "heavy_bench.py")
heavy_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(heavy_bench)


def fake_runner(calls, stdout=lambda root, argv: b"table\n", code=0):
    """A run_once that records (side, command) and reports the parent at
    2.0 s and 30 MB, the change at 1.0 s and 31 MB."""
    names = {tuple(argv): name for name, (argv, _) in heavy_bench.HEAVY.items()}

    def run_once(root, argv, stdin):
        calls.append((root.name, names[tuple(argv)]))
        parent = root.name == "parent"
        return {"code": code, "stdout": stdout(root, argv), "stderr": b"boom\n",
                "cpu_s": 2.0 if parent else 1.0, "max_rss_mb": 30.0 if parent else 31.0}
    return run_once


def test_each_pair_runs_every_command_on_both_sides_first_side_alternating(
        tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(heavy_bench, "run_once", fake_runner(calls))
    saved = tmp_path / "BENCH.json"
    saved.write_text(json.dumps({"parent": {"product-d10": {}}}), encoding="utf-8")
    assert heavy_bench.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--pairs", "2", "--save", str(saved)]) == 0
    names = list(heavy_bench.HEAVY)
    assert calls == [(side, name) for order in (("parent", "change"), ("change", "parent"))
                     for name in names for side in order]
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines()
            if line.startswith(("cpu_s ", "max_rss_mb "))]
    # one row per command and metric: process time halves, RSS grows
    assert [row[0] for row in rows] == ["cpu_s", "max_rss_mb"] * len(names)
    assert all(row[-4:] == ["-50.0%", "2", "of", "2"] for row in rows[::2])
    assert all(row[-4:] == ["+3.3%", "0", "of", "2"] for row in rows[1::2])
    data = json.loads(saved.read_text(encoding="utf-8"))
    assert data["parent"] == {"product-d10": {}}  # what ab_bench.py saved stays
    assert set(data["heavy"]) == {"description", *names}
    for name in names:
        assert data["heavy"][name]["argv"] == heavy_bench.HEAVY[name][0]
        assert data["heavy"][name]["parent"] == {"cpu_s": [2.0, 2.0], "max_rss_mb": [30.0, 30.0]}
        assert data["heavy"][name]["change"] == {"cpu_s": [1.0, 1.0], "max_rss_mb": [31.0, 31.0]}


def test_a_stdout_difference_stops_the_script(tmp_path, monkeypatch, capsys):
    calls = []
    last = list(heavy_bench.HEAVY)[-1]
    differs = heavy_bench.HEAVY[last][0]
    monkeypatch.setattr(heavy_bench, "run_once", fake_runner(
        calls, stdout=lambda root, argv: root.name.encode() if argv == differs else b"same"))
    with pytest.raises(SystemExit) as exc:
        heavy_bench.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--pairs", "3"])
    assert exc.value.code == f"error: {last} pair 1: stdout differs between the checkouts"
    assert calls[-2:] == [("parent", last), ("change", last)]
    assert "pair 1/3" not in capsys.readouterr().out


def test_a_failed_run_stops_the_script(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(heavy_bench, "run_once", fake_runner(calls, code=2))
    with pytest.raises(SystemExit) as exc:
        heavy_bench.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--pairs", "1"])
    first = list(heavy_bench.HEAVY)[0]
    assert exc.value.code.startswith(f"error: {first} exited 2 in ")
    assert exc.value.code.endswith("boom\n")


def test_fewer_than_one_pair_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        heavy_bench.main(["parent", "change", "--pairs", "0"])
    assert exc.value.code == 2
    assert "--pairs must be at least 1" in capsys.readouterr().err


def test_one_run_reads_the_childs_exit_code_stdout_time_and_memory(tmp_path):
    # a stand-in checkout whose branecalc.cli echoes stdin in capitals
    pkg = tmp_path / "src" / "branecalc"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "cli.py").write_text(
        "import sys\nsys.stdout.write(sys.stdin.read().upper())\nsys.exit(3)\n",
        encoding="utf-8")
    result = heavy_bench.run_once(tmp_path, ["brane-product", "-"], "gen a 3\n")
    assert (result["code"], result["stdout"], result["stderr"]) == (3, b"GEN A 3\n", b"")
    assert result["cpu_s"] > 0 and result["max_rss_mb"] > 1
