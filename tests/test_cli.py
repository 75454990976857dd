import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branecalc import (
    Derivation, DgaModel, GradedAlgebra, brane_ops, cohomology_basis, shriek, sphere_model,
)
from branecalc.cli import (
    MAX_GENERATOR_DEGREE, ModelFile, ParseError, _rows, build_parser, main, parse_model,
    print_model,
)

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
    assert (exc.value.line, exc.value.col) == (3, 7)


def test_parse_rejects_wrong_degree_differential():
    with pytest.raises(ParseError):
        parse_model("gen x 4\ngen y 7\nd y = x\n")


# each written term's degree is checked before like terms are summed, so a
# term that cancels, has coefficient 0 or squares an odd generator counts
@pytest.mark.parametrize("line, col", [
    ("d b = a", 7), ("  d b =  2*a", 10), ("d b = a^2 + a", 7),
    ("d b = a^2 + a^3 - a^3", 7), ("d b = a^3 - a^3", 7), ("d b = 0*a^3", 7),
    ("d b = b^2", 7),
])
def test_inhomogeneous_differential_errors_point_at_the_expression(line, col):
    # both "must be homogeneous" errors name the expression's first token,
    # counted from the start of the raw line
    with pytest.raises(ParseError) as exc:
        parse_model(f"gen a 3\ngen b 5\n{line}\n")
    assert "d b must be homogeneous of degree 6" in str(exc.value)
    assert (exc.value.line, exc.value.col) == (3, col)


# the literal 0 is the zero differential and has no degree; an odd square
# of the right degree is 0 too
@pytest.mark.parametrize("text, image", [
    ("gen x 4\ngen y 7\nd y = 0\n", None),
    ("gen x 4\ngen y 7\nd y = x^2 + 0\n", "x^2"),
    ("gen z 3\ngen y 5\nd y = z^2\n", None),
], ids=["zero", "plus-zero", "odd-square"])
def test_a_zero_term_of_no_degree_parses(text, image):
    model = parse_model(text).model
    images = {model.algebra.gen(g).name: repr(e) for g, e in model.d.images.items()}
    assert images == ({"y": image} if image else {})


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


@pytest.mark.parametrize("key", ["m", "mbar"])
def test_parse_rejects_a_repeated_info_key(key, tmp_path, capsys):
    # the second line would replace the first, whose parity goes unchecked
    text = f"gen x 3\ninfo {key} = 2\n  info {key} = 1\n"
    with pytest.raises(ParseError) as exc:
        parse_model(text)
    assert str(exc.value) == f"line 3, col 8: info {key} is already given on line 2"
    p = tmp_path / "twice.model"
    p.write_text(text)
    assert run(["brane-product", str(p)], capsys) == (2, "", f"error: {exc.value}\n")


@pytest.mark.parametrize("degree", [MAX_GENERATOR_DEGREE + 1, 99999999999999999999])
def test_parse_rejects_a_generator_degree_above_the_bound(degree, tmp_path, capsys):
    # such a degree once reached GradedAlgebra.monomials through δ!'s solve
    # and exited 1 with an OverflowError; only the rejection is run here
    text = f"gen x 3\n  gen y {degree}\n"
    with pytest.raises(ParseError) as exc:
        parse_model(text)
    assert str(exc.value) == (f"line 2, col 9: generator degree must be "
                              f"≤ {MAX_GENERATOR_DEGREE}, got {degree}")
    p = tmp_path / "huge.model"
    p.write_text(text)
    for command in (["brane-product", str(p)], ["verify", str(p), "--suite", "signs"]):
        assert run(command, capsys) == (2, "", f"error: {exc.value}\n")
    assert parse_model(f"gen y {MAX_GENERATOR_DEGREE}\n").model.algebra.gen("y").degree \
        == MAX_GENERATOR_DEGREE


def test_parse_names_the_unexpected_character_and_its_column():
    with pytest.raises(ParseError) as exc:
        parse_model("gen x 4\ngen y 7\nd y = x^2 $\n")
    assert (exc.value.line, exc.value.col) == (3, 11)
    assert "unexpected character '$'" in str(exc.value)


@pytest.mark.parametrize("line, col", [
    ("d y = x^", 9), ("d y = x*", 9), ("d y = x +", 10),
])
def test_an_unfinished_expression_reports_the_column_past_its_end(line, col):
    with pytest.raises(ParseError) as exc:
        parse_model(f"gen x 4\ngen y 7\n{line}\n")
    assert "unexpected end of expression" in str(exc.value)
    assert (exc.value.line, exc.value.col) == (3, col)


def test_rows_read_each_label_once():
    calls = []

    def rep(label):
        calls.append(label)
        return f"r{label[0]}.{label[1]}"

    # (4, 0)'s row is empty: it emits nothing, and its label is not read
    table = {(2, 0): {((0, 0), (2, 0)): 1, ((2, 0), (0, 0)): Fraction(-1, 2)},
             (4, 0): {}, (0, 0): {((0, 0), (0, 0)): 3}}
    rows = _rows(table, rep, True)
    assert sorted(calls) == [(0, 0), (2, 0)]
    assert rows == _rows({k: row for k, row in table.items() if row}, rep, True) == [
        [0, "r0.0", "r0.0", "r0.0", "3"],
        [2, "r2.0", "r0.0", "r2.0", "1"],
        [2, "r2.0", "r2.0", "r0.0", "-1/2"],
    ]


def test_parse_accepts_comments_and_rationals():
    mf = parse_model("# a comment\ngen a 2\ngen b 5  # trailing\nd b = 1/3*a^3\n")
    assert generators(mf.model) == [("a", 2), ("b", 5)]
    assert d_values(mf.model) == {"b": {mf.model.algebra.pack(((0, 3),)): Fraction(1, 3)}}


def test_parse_negative_info_value():
    mf = parse_model("gen x 3\ninfo mbar = -1\n")
    assert mf.info == {"mbar": -1}


@st.composite
def model_files(draw):
    """A random small model file: 1–4 generators (some named like keywords),
    random homogeneous differentials, optional name and info."""
    names = draw(st.lists(st.sampled_from(["a", "x", "y2", "w_1", "u'", "d", "gen"]),
                          min_size=1, max_size=4, unique=True))
    alg = GradedAlgebra()
    for nm in names:
        alg.add_generator(nm, draw(st.integers(1, 6)))
    coeffs = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 5)])
    images = {}
    for g in alg.generators:
        basis = alg.basis(g.degree + 1)
        if basis and draw(st.booleans()):
            monos = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=3,
                                  unique=True))
            images[g.gid] = alg.element({m: draw(coeffs) for m in monos})
    info = draw(st.dictionaries(st.sampled_from(["m", "mbar"]), st.integers(-9, 9)))
    model = DgaModel(alg, Derivation(alg, 1, images), tuple(range(len(names))))
    return ModelFile(draw(st.sampled_from([None, "M", "S4"])), info, model)


def generators(M):
    """[(name, degree)] of a model's generators, in order."""
    return [(g.name, g.degree) for g in M.algebra.generators]


def values(e):
    """{monomial: rational coefficient} of an element."""
    return {m: e.coefficient(m) for m in e.terms}


def d_values(M):
    """{generator name: values of its d image} of a model."""
    return {M.algebra.gen(gid).name: values(e) for gid, e in M.d.images.items()}


@settings(max_examples=60, deadline=None)
@given(model_files())
def test_parse_inverts_print_on_random_models(mf):
    back = parse_model(print_model(mf))
    assert (back.name, back.info) == (mf.name, mf.info)
    assert generators(back.model) == generators(mf.model)
    assert d_values(back.model) == d_values(mf.model)


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


def _model_source(how, data, tmp_path, monkeypatch):
    """The check-dga argument that reads data from a file or from a stdin
    whose decoding is strict."""
    if how == "file":
        path = tmp_path / "m.model"
        path.write_bytes(data)
        return str(path)
    stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stdin", stream)
    return "-"


@pytest.mark.parametrize("how", ["file", "stdin"])
@pytest.mark.parametrize("data, where", [
    (b"gen x 4\ngen y 7\xff\n", "line 2, col 8: invalid UTF-8 byte 0xff"),
    (b"gen x 4\r\ngen y 7\r\n\xe9\r\n", "line 3, col 1: invalid UTF-8 byte 0xe9"),
], ids=["lf", "crlf"])
def test_a_model_that_is_not_utf8_exits_2_at_the_bad_byte(
        how, data, where, tmp_path, capsys, monkeypatch):
    source = _model_source(how, data, tmp_path, monkeypatch)
    code, out, err = run(["check-dga", source], capsys)
    assert (code, out, err) == (2, "", f"error: {where}\n")


@pytest.mark.parametrize("how", ["file", "stdin"])
def test_crlf_line_endings_parse_as_lf_ones(how, tmp_path, capsys, monkeypatch):
    source = _model_source(how, S4.replace("\n", "\r\n").encode(), tmp_path,
                           monkeypatch)
    code, out, _ = run(["sphere-model", source, "--format", "tsv"], capsys)
    assert code == 0
    assert out == run(["sphere-model", str(ROOT / "models" / "s4.model"),
                       "--format", "tsv"], capsys)[1]


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


@pytest.mark.parametrize("model", ["s3", "s3xs3"])
def test_brane_product_names_k_in_its_degree_bound(model, capsys, monkeypatch):
    # the product builds no disk model, so its message names the product
    monkeypatch.chdir(ROOT)
    code, out, err = run(
        ["brane-product", f"models/{model}.model", "--k", "3", "--format", "tsv"],
        capsys)
    assert (code, out) == (2, "")
    assert err == "error: the product at k=3 needs every generator degree ≥ 4\n"


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


def test_vanishing_counts_one_identity_per_pair_of_classes(s4_file, capsys):
    # the coproduct reads its pairs off Betti numbers; the count here comes
    # from the state's cohomology bases
    top = 14
    state = sphere_model(parse_model(S4).model, 3)
    dims = [cohomology_basis(state, n).dimension for n in range(top + 1)]
    pairs = sum(dims[a] * dims[n - a] for n in range(top + 1) for a in range(n + 1))
    code, out, _ = run(["verify", s4_file, "--suite", "vanishing",
                        "--max-degree", str(top)], capsys)
    assert code == 0
    assert out == f"coproduct vanishing: PASS ({pairs} identities)\n"


@pytest.mark.parametrize("model", ["s3", "s4", "s3xs3"])
def test_verify_signs_passes_at_every_max_degree(model, capsys, monkeypatch):
    # δ! is solved from the model alone, so --max-degree does not reach the
    # signs suite; every value, however small, still passes
    monkeypatch.chdir(ROOT)
    for d in range(8):
        argv = ["verify", f"models/{model}.model", "--suite", "signs",
                "--max-degree", str(d)]
        code, out, err = run(argv, capsys)
        assert code == 0 and "PASS" in out, (d, err)


@pytest.mark.parametrize("law, lines", [
    ("transposition_sign_loop", ["loop transposition sign 1, expected -1"]),
    ("one_generator_ext_sign", [f"one-generator sign for degree {d} is not -1" for d in (5, 6)]),
])
def test_verify_signs_names_each_sign_that_fails(law, lines, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(shriek, law, lambda *args: 1)
    code, out, err = run(["verify", "models/s3.model", "--suite", "signs"], capsys)
    assert (code, err) == (1, "")
    assert out == "sign laws: FAIL (3 identities)\n" + "".join(f"  {x}\n" for x in lines)


def test_verify_golden_names_a_wrong_value(s3_file, capsys, monkeypatch):
    build = brane_ops.brane_coproduct_dual

    def flipped(*args):
        # δ∨(s2⊗s2) = -[s2] becomes +[s2]
        cop = build(*args)
        return cop._replace(table={**cop.table, ((1, 0), (1, 0)): {(1, 0): Fraction(1)}})

    monkeypatch.setattr(brane_ops, "brane_coproduct_dual", flipped)
    code, out, err = run(["verify", s3_file, "--suite", "golden"], capsys)
    assert (code, err) == (1, "")
    assert out == ("golden example: FAIL (11 identities)\n"
                   "  δ∨(s2⊗s2): got {(1, 0): Fraction(1, 1)}, "
                   "expected {(1, 0): Fraction(-1, 1)}\n")


# S⁴ with y named s1_x: the product builds no k-disk, so no s¹x, while the
# coproduct's γ! lives on the 2-disk, which has one
S4_NAMED_S1_X = "gen x 4\ngen s1_x 7\nd s1_x = x^2\n"


@pytest.mark.parametrize("text, command, name", [
    ("gen x 4\ngen s2_x 3\n", "brane-product", "s2_x"),
    ("gen x 3\ngen x@L 3\n", "brane-coproduct", "x@L"),
    (S4_NAMED_S1_X, "brane-coproduct", "s1_x"),
], ids=["product-s2_x", "coproduct-x@L", "coproduct-s1_x"])
def test_generator_name_collisions_exit_2(text, command, name, tmp_path, capsys):
    # a model generator named like a derived one (s<k>_NAME, NAME@L) is a
    # model error, not a traceback
    path = tmp_path / "clash.model"
    path.write_text(text)
    code, out, err = run([command, str(path), "--max-degree", "4"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: generator name") and repr(name) in err


def test_a_name_only_the_disk_derives_is_free_for_the_product(tmp_path, capsys):
    path = tmp_path / "renamed.model"
    path.write_text(S4_NAMED_S1_X)
    argv = ["brane-product", "--max-degree", "10", "--homology", "--format", "tsv"]
    code, out, err = run([argv[0], str(path), *argv[1:]], capsys)
    assert code == 0 and err == ""
    code, want, _ = run([argv[0], str(ROOT / "models" / "s4.model"), *argv[1:]], capsys)
    assert code == 0
    relabel = {"y": "s1_x", "s2_y": "s2_s1_x"}
    want = re.sub(r"[\w@]+", lambda m: relabel.get(m[0], m[0]), want)
    assert "s2_s1_x" in want and out == want


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


@pytest.mark.parametrize("suite, model", [("golden", "s3"), ("vanishing", "s4")])
@pytest.mark.parametrize("k", ["1", "3", "5"])
def test_k2_suites_reject_other_k(suite, model, k, capsys, monkeypatch):
    # golden and vanishing check values known at k = 2 only: any other --k
    # is a usage error, not a PASS computed at k = 2
    monkeypatch.chdir(ROOT)
    code, out, err = run(
        ["verify", f"models/{model}.model", "--suite", suite, "--k", k], capsys)
    assert code == 2 and out == ""
    assert err == f"error: the {suite} suite is defined for k = 2 only, got --k {k}\n"


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


def test_a_closed_stdout_exits_141_with_no_message():
    # the pipe's read end is closed before the child writes, so its first
    # write or flush fails; a missing model still exits 2 with its message
    argv = [sys.executable, "-m", "branecalc.cli"]
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(argv + ["brane-product", str(ROOT / "models" / "s3.model")],
                              stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")
    proc = subprocess.run(argv + ["check-dga", str(ROOT / "models" / "missing.model")],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "missing.model" in proc.stderr


def test_usage_error_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "branecalc.cli", "bogus-command"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


# ---------------------------------------------------------------------------
# one parser per process


def test_main_builds_its_parser_once(s4_file, capsys, monkeypatch):
    built = []
    real = argparse.ArgumentParser.__init__

    def init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", init)
    build_parser.cache_clear()
    run(["check-dga", s4_file], capsys)
    first = len(built)
    assert first and built[0] == "branecalc"
    for argv in (["check-dga", s4_file], ["cohomology", s4_file],
                 ["brane-product", s4_file, "--max-degree", "2"]) * 3:
        assert run(argv, capsys)[0] == 0
    assert len(built) == first


def test_importing_the_package_builds_no_parser():
    code = (
        "import argparse\n"
        "built = []\n"
        "real = argparse.ArgumentParser.__init__\n"
        "def init(self, *a, **kw):\n"
        "    built.append(1)\n"
        "    real(self, *a, **kw)\n"
        "argparse.ArgumentParser.__init__ = init\n"
        "import branecalc, branecalc.cli\n"
        "print(len(built))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def outcome(argv, capsys):
    """(exit code, stdout, stderr) of main(argv), SystemExit included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_a_shared_parser_keeps_no_state_between_calls(s3_file, s4_file, tmp_path,
                                                      capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal
    bad = tmp_path / "bad.model"
    bad.write_text("gen x 4\nd x = q\n")
    sequence = [
        ["brane-product", s3_file, "--max-degree", "6", "--homology"],
        ["verify", s4_file, "--suite", "vanishing", "--max-degree", "10"],
        ["brane-coproduct", s3_file, "--format", "tsv", "--homology"],
        ["verify", s3_file, "--suite", "golden"],
        ["brane-product", s3_file, "--max-degree"],  # usage error
        ["cohomology", s4_file, "-h"],
        ["-h"],
        ["check-dga", str(bad)],  # ParseError
        ["check-dga", str(tmp_path / "missing.model")],  # OSError
        ["verify", s3_file, "--suite", "signs", "--k", "3"],
        ["brane-product", s3_file, "--max-degree", "6", "--homology"],
    ]
    # each command alone on a fresh parser, as if it ran in its own process
    fresh = []
    for argv in sequence:
        build_parser.cache_clear()
        fresh.append(outcome(argv, capsys))
    assert [c for c, _, _ in fresh] == [0, 0, 0, 0, ("SystemExit", 2),
                                        ("SystemExit", 0), ("SystemExit", 0),
                                        2, 2, 0, 0]
    assert "col 7" in fresh[7][2] and "missing.model" in fresh[8][2]
    # the same commands twice over through one parser
    shared = [outcome(argv, capsys) for argv in sequence + sequence]
    assert shared == fresh + fresh


def test_table_commands_call_the_pipeline_brane_ops_holds_now(s3_file, capsys,
                                                              monkeypatch):
    argv = ["brane-product", s3_file, "--max-degree", "4"]
    assert run(argv, capsys)[0] == 0  # the parser is built by now
    calls = []
    real = brane_ops.brane_product_dual

    def recorder(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(brane_ops, "brane_product_dual", recorder)
    assert run(argv, capsys)[0] == 0
    assert calls == [(2, 4)]


S3XS4 = "gen a 3\ngen x 4\ngen y 7\nd y = x^2\n"


@pytest.mark.parametrize("text, depth, out", [
    # μ∨'s shift is δ!'s degree, 7, with or without the override m = 1
    (S3XS4, 8 + 7, "associativity: PASS (19 identities)\n"),
    (S3XS4 + "info m = 1\n", 8 + 7, "associativity: PASS (19 identities)\n"),
    # an override of the right parity but huge size builds no deeper
    ("gen x 3\ninfo m = 99999999999999999999\n", 8 + 3,
     "associativity: PASS (4 identities)\n"),
], ids=["s3xs4", "s3xs4-info", "s3-huge-m"])
def test_assoc_suite_builds_to_the_depth_of_the_tables_own_shift(
        text, depth, out, tmp_path, capsys, monkeypatch):
    path = tmp_path / "m.model"
    path.write_text(text)
    calls = []
    real = brane_ops.brane_product_dual

    def recorder(V, k, max_degree):
        calls.append(max_degree)
        assert max_degree < 100  # fail, not hang, on the info line's depth
        return real(V, k, max_degree)

    monkeypatch.setattr(brane_ops, "brane_product_dual", recorder)
    assert run(["verify", str(path), "--suite", "assoc"], capsys) == (0, out, "")
    assert calls == [depth]


@pytest.mark.parametrize("line, message", [
    ("info m = 5", "m=5 has the wrong parity (p+q=2)"),
    ("info mbar = 1", "m̄=1 has the wrong parity (dim V=2)"),
    # m is checked first
    ("info mbar = -3\ninfo m = 99999999999999999999",
     "m=99999999999999999999 has the wrong parity (p+q=2)"),
])
def test_a_wrong_parity_info_line_fails_tables_and_verify_alike(
        line, message, tmp_path, capsys):
    path = tmp_path / "bad.model"
    path.write_text(f"{S4}{line}\n")
    for argv in (["brane-product", str(path)], ["brane-coproduct", str(path)],
                 *(["verify", str(path), "--suite", suite] for suite in (
                     "assoc", "comm", "frobenius", "golden", "signs", "vanishing"))):
        assert run(argv, capsys) == (2, "", f"error: {message}\n"), argv


INFO_MODELS = {"s3": S3, "s4": S4, "s3xs4": S3XS4}
INFO_COMMANDS = (["brane-product", "-", "--homology"], ["brane-coproduct", "-", "--homology"],
                 ["verify", "-", "--suite", "comm"], ["verify", "-", "--suite", "assoc"])


def run_stdin(argv, text):
    """(exit code, stdout, stderr) of main(argv) with text on stdin."""
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@functools.cache
def without_info(name, argv):
    return run_stdin(list(argv), INFO_MODELS[name])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(INFO_MODELS)), st.sampled_from(INFO_COMMANDS),
       st.integers(0, 6), st.lists(st.sampled_from(["m", "mbar"]), min_size=1, max_size=2,
                                   unique=True),
       st.lists(st.one_of(st.integers(-20, 20), st.integers(-10**30, 10**30)),
                min_size=2, max_size=2))
def test_an_info_line_of_the_right_parity_moves_no_output(name, command, top, keys, halves):
    """Each table's shift is its own m or m̄, so a value of dim V's parity,
    however large, leaves exit code, stdout and stderr as they are without
    the line."""
    text = INFO_MODELS[name]
    dim = len(parse_model(text).model.algebra.generators)
    lines = "".join(f"info {key} = {2 * h + dim}\n" for key, h in zip(keys, halves))
    argv = (*command, "--max-degree", str(top))
    assert run_stdin(list(argv), text + lines) == without_info(name, argv)
