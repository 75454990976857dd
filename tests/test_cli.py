import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branecalc import GradedAlgebra
from branecalc.cli import ModelFile, ParseError, main, parse_model, print_model

ROOT = Path(__file__).resolve().parent.parent
S3 = "algebra S3\ngen x 3\n"
S4 = "algebra S4\ngen x 4\ngen y 7\nd y = x^2\n"


@pytest.fixture
def s3_file(tmp_path):
    p = tmp_path / "s3.model"
    p.write_text(S3)
    return str(p)


@pytest.fixture
def s4_file(tmp_path):
    p = tmp_path / "s4.model"
    p.write_text(S4)
    return str(p)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# parser


def test_parse_round_trip_is_identity():
    for text in (S3, S4, "gen a 2\ngen b 5\nd b = 1/2*a^3\ninfo m = 5\n"):
        canonical = print_model(parse_model(text))
        assert print_model(parse_model(canonical)) == canonical


def test_parse_reports_line_and_column():
    with pytest.raises(ParseError) as exc:
        parse_model("gen x 3\ngen x 4\n")
    assert "line 2" in str(exc.value)


def test_parse_rejects_undeclared_generator():
    with pytest.raises(ParseError):
        parse_model("gen x 4\nd x = z^2\n")


def test_parse_rejects_inhomogeneous_differential():
    with pytest.raises(ParseError) as exc:
        parse_model("gen x 4\ngen y 7\nd y = x^2 + x\n")
    assert "homogeneous" in str(exc.value)


def test_parse_rejects_wrong_degree_differential():
    with pytest.raises(ParseError):
        parse_model("gen x 4\ngen y 7\nd y = x\n")


@pytest.mark.parametrize("second, col", [
    ("d y = 2*x^2", 3), ("d y = 0", 3), ("  d y = x^2", 5),
])
def test_parse_rejects_a_repeated_differential(second, col, tmp_path, capsys):
    text = f"gen x 4\ngen y 7\nd y = x^2\n{second}\n"
    with pytest.raises(ParseError) as exc:
        parse_model(text)
    assert (exc.value.line, exc.value.col) == (4, col)
    p = tmp_path / "twice.model"
    p.write_text(text)
    code, _, err = run(["check-dga", str(p)], capsys)
    assert code == 2 and f"line 4, col {col}" in err


def test_parse_names_the_unexpected_character_and_its_column():
    with pytest.raises(ParseError) as exc:
        parse_model("gen x 4\ngen y 7\nd y = x^2 $\n")
    assert (exc.value.line, exc.value.col) == (3, 11)
    assert "unexpected character '$'" in str(exc.value)


def test_parse_accepts_comments_and_rationals():
    mf = parse_model("# a comment\ngen a 2\ngen b 5  # trailing\nd b = 1/3*a^3\n")
    assert mf.gens == [("a", 2), ("b", 5)]


def test_parse_negative_info_value():
    mf = parse_model("gen x 3\ninfo mbar = -1\n")
    assert mf.info == {"mbar": -1}


@st.composite
def model_files(draw):
    """A random small model file: 1–4 generators (some named like keywords),
    random homogeneous differentials, optional name and info."""
    names = draw(st.lists(st.sampled_from(["a", "x", "y2", "w_1", "u'", "d", "gen"]),
                          min_size=1, max_size=4, unique=True))
    gens = [(nm, draw(st.integers(1, 6))) for nm in names]
    alg = GradedAlgebra()
    for nm, deg in gens:
        alg.add_generator(nm, deg)
    coeffs = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 5)])
    diffs = {}
    for g in alg.generators:
        basis = alg.basis(g.degree + 1)
        if basis and draw(st.booleans()):
            monos = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=3,
                                  unique=True))
            diffs[g.name] = alg.element({m: draw(coeffs) for m in monos})
    info = draw(st.dictionaries(st.sampled_from(["m", "mbar"]), st.integers(-9, 9)))
    return ModelFile(draw(st.sampled_from([None, "M", "S4"])), gens, diffs, info)


def values(e):
    """{monomial: rational coefficient} of an element."""
    return {m: e.coefficient(m) for m in e.terms}


@settings(max_examples=60, deadline=None)
@given(model_files())
def test_parse_inverts_print_on_random_models(mf):
    back = parse_model(print_model(mf))
    assert (back.name, back.gens, back.info) == (mf.name, mf.gens, mf.info)
    want = {nm: values(e) for nm, e in mf.diffs.items()}
    assert {nm: values(e) for nm, e in back.diffs.items()} == want
    alg = back.model.algebra
    assert [(g.name, g.degree) for g in alg.generators] == mf.gens
    assert {alg.gen(gid).name: values(e) for gid, e in back.model.d.images.items()} == want


@settings(max_examples=60, deadline=None)
@given(model_files(), st.lists(st.tuples(st.integers(0, 10**4), st.sampled_from(
    ["", "^", "*", "/", "0", "9", "(", "=", "-", "+", "#", "@", "$", "\n", " ",
     "gen", "d", "info", "x"])), min_size=1, max_size=4))
def test_malformed_text_exits_2_without_a_traceback(mf, edits):
    """Random edits of a printed model ("" deletes a character): text the
    parser rejects exits 2 with a located message, the rest exits 0 or 1."""
    text = print_model(mf)
    for pos, junk in edits:
        pos %= len(text) + 1
        text = text[:pos] + junk + text[pos + (not junk):]
    try:
        parse_model(text)
        malformed = False
    except ParseError:
        malformed = True
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.model"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["check-dga", str(path)])
    if malformed:
        assert code == 2 and err.getvalue().startswith("error: line "), text
    else:
        assert code in (0, 1), text


@pytest.mark.parametrize("expr, message", [
    ("1/0*x^2", "zero denominator in '1/0'"),
    ("x^99999999", "got degree 399999996"),
], ids=["zero-denominator", "huge-exponent"])
def test_bad_coefficients_and_exponents_exit_2(expr, message, tmp_path, capsys):
    path = tmp_path / "bad.model"
    path.write_text(f"gen x 4\ngen y 7\nd y = {expr}\n")
    code, _, err = run(["check-dga", str(path)], capsys)
    assert code == 2 and err.startswith("error: line 3") and message in err


# ---------------------------------------------------------------------------
# commands and exit codes


def test_check_dga_ok(s4_file, capsys):
    code, out, _ = run(["check-dga", s4_file], capsys)
    assert code == 0 and "OK" in out


def test_check_dga_fails_with_witness(tmp_path, capsys):
    p = tmp_path / "bad.model"
    p.write_text("gen a 1\ngen b 2\nd a = b\nd b = a*b\n")
    code, out, _ = run(["check-dga", str(p)], capsys)
    assert code == 1
    assert "FAIL" in out and "a" in out


def test_parse_errors_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.model"
    p.write_text("gen x 4\nd x = q\n")
    code, _, err = run(["check-dga", str(p)], capsys)
    assert code == 2 and "error:" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(["check-dga", "/nonexistent.model"], capsys)
    assert code == 2 and "error:" in err


def test_cohomology_table(s4_file, capsys):
    code, out, _ = run(
        ["cohomology", s4_file, "--max-degree", "8", "--format", "tsv"], capsys
    )
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert rows[0] == ["degree", "dim", "representatives"]
    assert rows[1] == ["0", "1", "1"]
    assert rows[5] == ["4", "1", "x"]
    assert rows[9][:2] == ["8", "0"]


def test_sphere_model_emission(s3_file, capsys):
    code, out, _ = run(
        ["sphere-model", s3_file, "--k", "2", "--format", "tsv"], capsys
    )
    assert code == 0
    assert "s1_x\t2\t0" in out


def test_path_model_emission(s4_file, capsys):
    code, out, _ = run(["path-model", s4_file, "--format", "tsv"], capsys)
    assert code == 0
    assert "s1_x\t3\t-x@L + x@R" in out


def test_brane_product_tsv_is_byte_identical(s3_file, capsys):
    argv = ["brane-product", s3_file, "--max-degree", "6", "--format", "tsv"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second
    assert "0\t1\t1\tx\t1" in first


@pytest.mark.parametrize(
    "op", ["product-s3-d8", "coproduct-s3-d8", "product-s4-d6", "coproduct-s4-d6",
           "coproduct-s4-d14", "product-s3xs3-d10", "product-s4-d10"]
    + [f"{kind}-model-{m}" for kind in ("sphere", "disk", "path")
       for m in ("s3", "s4", "s3xs3")]
)
def test_table_ops_match_benchmark_references(op, capsys, monkeypatch):
    # the exit code and stdout digest that branebench/references.json
    # recorded for the benchmark's table commands, the timed headline ones
    # included; the model tables pin every derived generator label
    with open(ROOT / "branebench" / "references.json", encoding="utf-8") as fh:
        ref = json.load(fh)[op]
    monkeypatch.chdir(ROOT)
    code, out, _ = run(ref["command"].split(), capsys)
    assert code == ref["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ref["stdout_sha256"]


def test_brane_coproduct_values(s3_file, capsys):
    code, out, _ = run(
        ["brane-coproduct", s3_file, "--max-degree", "6", "--format", "tsv"],
        capsys,
    )
    assert code == 0
    assert "1\ts2_x\t1\t1\t-1" in out
    assert "1\t1\ts2_x\t1\t1" in out


def test_brane_coproduct_rejects_other_codimensions(s3_file, capsys):
    code, _, err = run(
        ["brane-coproduct", s3_file, "--k", "3", "--max-degree", "6"], capsys
    )
    assert code == 2 and "error:" in err


def test_verify_suites_pass(s3_file, s4_file, capsys):
    for argv in (
        ["verify", s3_file, "--suite", "golden"],
        ["verify", s3_file, "--suite", "comm"],
        ["verify", s3_file, "--suite", "signs"],
        ["verify", s4_file, "--suite", "vanishing", "--max-degree", "10"],
    ):
        code, out, _ = run(argv, capsys)
        assert code == 0, argv
        assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("model", ["s3", "s4", "s3xs3"])
def test_verify_signs_passes_at_every_max_degree(model, capsys, monkeypatch):
    # the δ! cutoff is sized from δ!'s degree and leading fiber monomial,
    # so small --max-degree values do not starve the solve
    monkeypatch.chdir(ROOT)
    for d in range(8):
        argv = ["verify", f"models/{model}.model", "--suite", "signs",
                "--max-degree", str(d)]
        code, out, err = run(argv, capsys)
        assert code == 0 and "PASS" in out, (d, err)


@pytest.mark.parametrize("text, command, name", [
    ("gen x 4\ngen s1_x 3\n", "brane-product", "s1_x"),
    ("gen x 3\ngen x@L 3\n", "brane-coproduct", "x@L"),
], ids=["product-s1_x", "coproduct-x@L"])
def test_generator_name_collisions_exit_2(text, command, name, tmp_path, capsys):
    # a model generator named like a derived one (s<k>_NAME, NAME@L) is a
    # model error, not a traceback
    path = tmp_path / "clash.model"
    path.write_text(text)
    code, out, err = run([command, str(path), "--max-degree", "4"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: generator name") and repr(name) in err


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "assoc"],
    ["verify", "--suite", "frobenius"],
    ["verify", "--suite", "vanishing"],
    ["brane-product"],
    ["brane-coproduct"],
    ["cohomology"],
], ids=lambda argv: "-".join(argv[::2]))
def test_negative_max_degree_exits_2(argv, s4_file, capsys):
    # a negative degree bound is bad input: no empty table, no vacuous PASS
    with pytest.raises(SystemExit) as exc:
        main([argv[0], s4_file, *argv[1:], "--max-degree", "-1"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "--max-degree" in out.err and "'-1'" in out.err


def test_verify_checking_nothing_does_not_pass(capsys, monkeypatch):
    # with m = 10, every Frobenius identity needs a coproduct entry above the
    # default --max-degree, so the suite has nothing to check
    text = ("gen a 4\ngen b 6\ngen y 7\ngen z 11\n"
            "d y = a^2\nd z = b^2 + a^3\n")
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = run(["verify", "-", "--suite", "frobenius"], capsys)
    assert code == 1 and "PASS" not in out
    assert out == ("Frobenius: NOTHING CHECKED (no identity lies within "
                   "--max-degree 8)\n")


def test_verify_suite_fails_on_wrong_model(s3_file, capsys):
    # the vanishing suite needs an even generator: S³ is rejected as a usage error
    code, _, err = run(["verify", s3_file, "--suite", "vanishing"], capsys)
    assert code == 2 and "error:" in err


def test_console_script_runs(s3_file):
    proc = subprocess.run(
        [sys.executable, "-m", "branecalc.cli", "check-dga", s3_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "OK" in proc.stdout
    # the package does not import cli ahead of runpy, so no RuntimeWarning
    assert proc.stderr == ""


def test_usage_error_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "branecalc.cli", "bogus-command"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
