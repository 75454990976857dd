"""The benchmark's correctness gate, with negative controls."""

import json
import random

import pytest

import checks
from conftest import ROOT
from layers import METRICS as LAYER_METRICS
from run import END_TO_END, end_to_end_metrics, load_references, result_line, run_op, run_passes
from workloads import WORKLOADS, Op

SMALL = WORKLOADS["cli-small"].ops


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.fixture
def main():
    from branecalc import cli
    return cli.main


def test_cli_small_outputs_pass_their_checks_and_match_references(main):
    refs = load_references()
    res = run_passes(main, SMALL, refs, random.Random(0), seconds=0, min_passes=1)
    assert (res.attempted, res.failed) == (len(SMALL), 0), res.failures
    for op in SMALL:
        rc, out = run_op(main, op.argv)
        assert checks.check(op, rc, out) == [], op.id


def test_perturbed_stdout_fails_the_run(main):
    """Negative control: one extra character makes every operation fail."""
    def perturbed(argv):
        rc = main(argv)
        print(" ")
        return rc

    res = run_passes(perturbed, SMALL, load_references(), random.Random(0),
                     seconds=0, min_passes=1)
    values = end_to_end_metrics([0.1], res)
    line = result_line(res.failed == 0, res, values, END_TO_END)
    assert res.failed == res.attempted == len(SMALL)
    assert 1 - values["success_rate"] > 0  # error_rate
    assert line["correct"] is False and line["failed"] == len(SMALL)


def test_wrong_exit_code_fails_the_run(main):
    op = next(o for o in SMALL if o.id == "error-malformed")
    res = run_passes(lambda argv: 0, [op], load_references(), random.Random(0),
                     seconds=0, min_passes=1)
    assert res.failed == 1


def test_a_crash_is_a_failed_operation():
    def crash(argv):
        raise RuntimeError("boom")

    res = run_passes(crash, SMALL[:2], load_references(), random.Random(0),
                     seconds=0, min_passes=1)
    assert (res.attempted, res.failed) == (2, 2)


def _perturbed_check(main, op_id, old, new):
    op = next(o for w in WORKLOADS.values() for o in w.ops if o.id == op_id)
    rc, out = run_op(main, op.argv)
    assert old in out
    return checks.check(op, rc, out.replace(old, new, 1))


@pytest.mark.parametrize("op_id, old, new", [
    ("product-s3-d8", "1\ts2_x\ts2_x\tx\t-1", "1\ts2_x\ts2_x\tx\t1"),  # golden μ∨
    ("product-s4-d6", "\tx\tx\tx\t1", "\tx\tx\tx\t2"),  # associativity
    ("coproduct-s3-d8", "σ(s2_x)\tσ(s2_x)\tσ(s2_x)\t1", "σ(s2_x)\tσ(s2_x)\tσ(s2_x)\t-1"),
    ("coproduct-s4-d6", "coefficient\n", "coefficient\n0\t1\t1\t1\t1\n"),  # vanishing
    ("cohomology-s4-d20", "4\t1\tx", "4\t0\t"),
    ("disk-model-s4", "2*x*s2_x", "x*s2_x"),
    ("verify-s3-frobenius", "PASS", "FAIL"),
])
def test_checks_reject_perturbed_outputs(main, op_id, old, new):
    assert _perturbed_check(main, op_id, old, new)


def test_checks_reject_the_truncated_product():
    """The known truncation defect: S4 product below --max-degree 4."""
    from branecalc import cli
    op = Op("truncated", "brane-product models/s4.model --k 2 --max-degree 3 --format tsv",
            "product-laws")
    rc, out = run_op(cli.main, op.argv)
    assert rc == 0 and checks.check(op, rc, out)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
