"""Command-line interface and the model-file language.

Model files declare a minimal Sullivan algebra:

    algebra S4          # optional header
    gen x 4             # generator, degree
    gen y 7
    d y = x^2           # differential assignment (default 0)
    info m = 4          # optional m or mbar, checked for parity only

Commands: check-dga, cohomology, sphere-model, disk-model, path-model,
brane-product, brane-coproduct, verify.  Exit codes: 0 ok, 1 verification
failure (or a suite that found nothing to check within --max-degree), 2 usage
or model error, 141 (a shell's SIGPIPE status) stdout closed by its reader.

An info line gives m or m̄ for the record; each table's shift is its own
(δ!'s degree m, γ!'s degree m̄), so the table and verify commands only
check that the value has the parity the theory fixes, dim V (mod 2).
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction

from .gca_core import GradedAlgebra
from .cohomology import cohomology_basis
from .dga_models import (
    Derivation,
    DgaModel,
    ModelError,
    disk_model,
    path_model,
    sphere_model,
    written_image,
)
from . import brane_ops, shriek


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int = 0):
        super().__init__(f"line {line}, col {col}: {msg}")
        self.line = line
        self.col = col


class ModelFile(namedtuple("ModelFile", (
    "name",
    "info",  # key -> int
    "model",
))):
    __slots__ = ()


# the largest generator degree a model file may give: the tables pad their
# degree-indexed lookups to every degree up to the largest they ask for
MAX_GENERATOR_DEGREE = 10_000
_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[A-Za-z_][A-Za-z0-9_@']*|[-+*^=()])")


def _tokenize(text: str, line: int):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            rest = text[pos:].lstrip()
            if rest:
                col = len(text) - len(rest) + 1
                raise ParseError(f"unexpected character {rest[0]!r}", line, col)
            break
        out.append((m.group(1), m.start(1) + 1))
        pos = m.end()
    return out


class _ExprParser:
    def __init__(self, tokens, line: int, alg: GradedAlgebra):
        self.toks = tokens
        self.i = 0
        self.line = line
        self.alg = alg

    def peek(self):
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def next(self):
        if self.i >= len(self.toks):
            # the column just past the last token; an expression has one
            tok, col = self.toks[-1]
            raise ParseError("unexpected end of expression", self.line, col + len(tok))
        t = self.toks[self.i]
        self.i += 1
        return t

    def expr(self) -> list:
        """[(signed coefficient, raw factors)], each term as written, its
        (gid, exponent) factors in their order.  Nothing is sorted, summed
        or packed, so every written term reaches the degree check."""
        terms = []
        sign = -1 if self.peek() == "-" else 1
        if self.peek() in ("+", "-"):
            self.next()
        while True:
            coeff, raw = self.term()
            terms.append((sign * coeff, raw))
            if self.peek() not in ("+", "-"):
                break
            sign = 1 if self.next()[0] == "+" else -1
        if self.i != len(self.toks):
            tok, col = self.toks[self.i]
            raise ParseError(f"unexpected token {tok!r}", self.line, col)
        return terms

    def term(self) -> tuple[Fraction, list]:
        """(coefficient, the (gid, exponent) factors in their order)."""
        coeff: Fraction | int = 1
        tok = self.peek()
        if tok is not None and (tok.isdigit() or "/" in tok and tok[0].isdigit()):
            tok, col = self.next()
            try:
                coeff = Fraction(tok)
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {tok!r}", self.line, col) from None
            if self.peek() == "*":
                self.next()
            elif self.peek() is None or self.peek() in "+-":
                return coeff, []
        raw = [self.factor()]
        while self.peek() == "*":
            self.next()
            raw.append(self.factor())
        return coeff, raw

    def factor(self) -> tuple[int, int]:
        tok, col = self.next()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_@']*", tok):
            raise ParseError(f"expected a generator name, got {tok!r}", self.line, col)
        if not self.alg.has_gen(tok):
            raise ParseError(f"unknown generator {tok!r}", self.line, col)
        gid = self.alg.gen(tok).gid
        if self.peek() != "^":
            return gid, 1
        self.next()
        etok, ecol = self.next()
        if not etok.isdigit():
            raise ParseError(f"expected an integer exponent, got {etok!r}",
                             self.line, ecol)
        return gid, int(etok)


def parse_model(text: str) -> ModelFile:
    """Parse a model file and build the underlying (∧V, d)."""
    name: str | None = None
    images: dict = {}  # gid -> nonzero d image
    info: dict = {}
    info_lines: dict = {}  # key -> line
    alg = GradedAlgebra()
    raw_diffs: dict = {}  # name -> (expression tokens, line)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # columns count from the start of the raw line
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        toks = _tokenize(line, lineno)
        head, col = toks[0]
        if head == "algebra":
            if len(toks) != 2:
                raise ParseError("usage: algebra NAME", lineno, col)
            name = toks[1][0]
            alg.name = name
        elif head == "gen":
            if len(toks) != 3 or not toks[2][0].isdigit():
                raise ParseError("usage: gen NAME DEGREE", lineno, col)
            nm, deg = toks[1][0], int(toks[2][0])
            if deg < 1:
                raise ParseError(f"generator degree must be ≥ 1, got {deg}",
                                 lineno, toks[2][1])
            if deg > MAX_GENERATOR_DEGREE:
                raise ParseError(f"generator degree must be ≤ {MAX_GENERATOR_DEGREE}, "
                                 f"got {deg}", lineno, toks[2][1])
            if alg.has_gen(nm):
                raise ParseError(f"duplicate generator {nm!r}", lineno, toks[1][1])
            alg.add_generator(nm, deg)
        elif head == "d":
            if len(toks) < 4 or toks[2][0] != "=":
                raise ParseError("usage: d NAME = EXPR", lineno, col)
            nm = toks[1][0]
            if not alg.has_gen(nm):
                raise ParseError(f"unknown generator {nm!r}", lineno, toks[1][1])
            if nm in raw_diffs:
                raise ParseError(f"d {nm} is already given on line {raw_diffs[nm][1]}",
                                 lineno, toks[1][1])
            raw_diffs[nm] = toks[3:], lineno
        elif head == "info":
            if len(toks) not in (4, 5) or toks[2][0] != "=":
                raise ParseError("usage: info KEY = INT", lineno, col)
            key = toks[1][0]
            if key not in ("m", "mbar"):
                raise ParseError(f"unknown info key {key!r} (expected m or mbar)",
                                 lineno, toks[1][1])
            if key in info_lines:
                raise ParseError(f"info {key} is already given on line {info_lines[key]}",
                                 lineno, toks[1][1])
            info_lines[key] = lineno
            if len(toks) == 5 and toks[3][0] == "-" and toks[4][0].isdigit():
                info[key] = -int(toks[4][0])
            elif len(toks) == 4 and toks[3][0].isdigit():
                info[key] = int(toks[3][0])
            else:
                raise ParseError("info value must be an integer", lineno, toks[3][1])
        else:
            raise ParseError(f"unknown declaration {head!r}", lineno, col)
    for nm, (toks, lineno) in raw_diffs.items():
        image, error = written_image(alg, nm, _ExprParser(toks, lineno, alg).expr())
        if error:  # at the expression's first token
            raise ParseError(error, lineno, toks[0][1])
        if image is not None:
            images[alg.gen(nm).gid] = image
    base = tuple(range(len(alg.generators)))
    return ModelFile(name, info, DgaModel(alg, Derivation(alg, 1, images), base))


def print_model(mf: ModelFile) -> str:
    """Canonical text form; parse(print(m)) round-trips."""
    lines = []
    if mf.name:
        lines.append(f"algebra {mf.name}")
    gens, images = mf.model.algebra.generators, mf.model.d.images
    lines.extend(f"gen {g.name} {g.degree}" for g in gens)
    lines.extend(f"d {g.name} = {images[g.gid]!r}" for g in gens if g.gid in images)
    for key in ("m", "mbar"):
        if key in mf.info:
            lines.append(f"info {key} = {mf.info[key]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# table emission


def _emit(rows: list, headers: list, fmt: str) -> str:
    if fmt == "tsv":
        out = ["\t".join(headers)]
        out.extend("\t".join(str(c) for c in row) for row in rows)
        return "\n".join(out) + "\n"
    widths = [len(h) for h in headers]
    srows = [[str(c) for c in row] for row in rows]
    for row in srows:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    fmt_row = "  ".join(f"{{:<{w}}}" for w in widths)
    out = [fmt_row.format(*headers), fmt_row.format(*["-" * w for w in widths])]
    out.extend(fmt_row.format(*row) for row in srows)
    return "\n".join(out) + "\n"


def _model_table(M: DgaModel, fmt: str) -> str:
    rows = []
    for g in M.algebra.generators:
        img = M.d.images.get(g.gid, M.algebra.zero())
        rows.append([g.name, g.degree, repr(img)])
    return _emit(rows, ["generator", "degree", "d"], fmt)


def _decode(data: bytes) -> str:
    """data decoded as UTF-8; a byte that is not UTF-8 is a ParseError at
    its line and column."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the text before the bad byte decodes; "?" stands in for the byte,
        # so that a line break just before it opens the byte's own line
        lines = (data[:exc.start].decode("utf-8") + "?").splitlines()
        raise ParseError(f"invalid UTF-8 byte {data[exc.start]:#04x}",
                         len(lines), len(lines[-1])) from None


def _load(path: str) -> ModelFile:
    """The model file at path, or on stdin for "-", decoded as UTF-8 here
    rather than by the stream.  A stdin with no byte layer (an in-memory
    text stream) is read as the text it already is."""
    if path == "-":
        raw = getattr(sys.stdin, "buffer", None)
        return parse_model(sys.stdin.read() if raw is None else _decode(raw.read()))
    with open(path, "rb") as fh:
        return parse_model(_decode(fh.read()))


# ---------------------------------------------------------------------------
# commands


def _cmd_check_dga(args) -> int:
    mf = _load(args.model)
    bad = mf.model.d_squared_witnesses()
    if bad:
        print(f"FAIL: d^2 != 0 on generators: {', '.join(bad)}")
        return 1
    print("OK: d^2 = 0")
    return 0


def _cmd_cohomology(args) -> int:
    mf = _load(args.model)
    mf.model.check()
    rows = []
    for n in range(args.max_degree + 1):
        h = cohomology_basis(mf.model, n)
        reps = ", ".join(repr(r) for r in h.representatives)
        rows.append([n, h.dimension, reps])
    sys.stdout.write(_emit(rows, ["degree", "dim", "representatives"], args.format))
    return 0


def _cmd_model(kind: str, args) -> int:
    mf = _load(args.model)
    mf.model.check()
    if kind == "sphere":
        M = sphere_model(mf.model, args.k)
    elif kind == "disk":
        M = disk_model(mf.model, args.k)
    else:
        M = path_model(mf.model)
    sys.stdout.write(_model_table(M, args.format))
    return 0


def _check_info(mf: ModelFile) -> None:
    """Reject an info value whose parity is not dim V's, m first."""
    n = len(mf.model.algebra.generators)
    for key, name, dim in (("m", "m", "p+q"), ("mbar", "m̄", "dim V")):
        if (mf.info.get(key, n) - n) % 2:
            raise ModelError(f"{name}={mf.info[key]} has the wrong parity ({dim}={n})")


def _rows(table: dict, rep, degree: bool) -> list:
    """The rows of a table {key: {key: coefficient}}, each key a class label
    or a pair of labels: the key's degree (if degree), the representatives
    rep(label) of the key and of the other side, then the coefficient.
    Empty rows emit nothing and are dropped before sorting; the key's part
    of a row is made once per key, and rep is called once per label."""
    def labels(key):
        return key if isinstance(key[0], tuple) else (key,)

    rep = functools.cache(rep)
    rows = []
    for key, row in sorted(item for item in table.items() if item[1]):
        head = [sum(c[0] for c in labels(key))] if degree else []
        head.extend(map(rep, labels(key)))
        for other, coeff in sorted(row.items()):
            rows.append([*head, *map(rep, labels(other)), str(coeff)])
    return rows


# each table command's headers: the dual table's, then the homology table's
_TABLE_HEADERS = {
    "brane-product": (["degree", "class", "left", "right", "coefficient"],
                      ["left", "right", "value", "coefficient"]),
    "brane-coproduct": (["degree", "left", "right", "value", "coefficient"],
                        ["class", "left", "right", "coefficient"]),
}


def _cmd_table(args) -> int:
    """brane-product or brane-coproduct: the dual table its pipeline
    returns, then with --homology its dualization.  The pipeline is looked
    up in brane_ops on each call, not when the parser is built, so a wrapper
    installed there after the first main call is still the one called."""
    build = (brane_ops.brane_product_dual if args.command == "brane-product"
             else brane_ops.brane_coproduct_dual)
    headers = _TABLE_HEADERS[args.command]
    mf = _load(args.model)
    mf.model.check()
    _check_info(mf)
    op = build(mf.model, args.k, args.max_degree)
    sys.stdout.write(_emit(_rows(op.table, op.rep_string, True), headers[0], args.format))
    if args.homology:
        hop = brane_ops.dualize_to_homology(op)
        sys.stdout.write("\n" if args.format != "tsv" else "")
        sys.stdout.write(_emit(
            _rows(hop.table, lambda c: f"σ({op.rep_string(c)})", False),
            headers[1], args.format))
    return 0


# ---------------------------------------------------------------------------
# verification suites


def _suite_assoc(mf, args) -> list:
    # μ∨ is built m = δ!'s degree deeper, for the classes its rows reach
    m = shriek.delta_degree(mf.model)
    prod = brane_ops.brane_product_dual(mf.model, args.k, args.max_degree + max(m, 0))
    return [brane_ops.check_associativity(prod, args.max_degree)]


def _suite_comm(mf, args) -> list:
    prod = brane_ops.brane_product_dual(mf.model, args.k, args.max_degree)
    reports = [brane_ops.check_commutativity(prod)]
    if args.k == 2 and shriek.is_pure(mf.model):
        cop = brane_ops.brane_coproduct_dual(mf.model, args.k, args.max_degree)
        reports.append(brane_ops.check_commutativity(cop))
    return reports


def _suite_frobenius(mf, args) -> list:
    prod = brane_ops.brane_product_dual(mf.model, args.k, args.max_degree)
    cop = brane_ops.brane_coproduct_dual(mf.model, args.k, args.max_degree)
    return [brane_ops.check_frobenius(prod, cop, args.max_degree)]


def _needs_k2(suite: str, args) -> None:
    """A suite whose expected values are those of k = 2 rejects any other --k."""
    if args.k != 2:
        raise ModelError(f"the {suite} suite is defined for k = 2 only, got --k {args.k}")


def _suite_golden(mf, args) -> list:
    """The odd-sphere worked example: dual-level values and the homology
    product structure (exterior algebra on two generators)."""
    _needs_k2("golden", args)
    gens = mf.model.algebra.generators
    if len(gens) != 1 or not gens[0].is_odd or gens[0].degree < 3:
        raise ModelError("golden suite needs a single odd generator of degree ≥ 3")
    D = gens[0].degree
    top = max(2 * D - 2, 8)
    prod = brane_ops.brane_product_dual(mf.model, 2, top)
    cop = brane_ops.brane_coproduct_dual(mf.model, 2, top)
    l1, lw, lx, lxw = (0, 0), (D - 2, 0), (D, 0), (2 * D - 2, 0)
    failures = []
    checked = 0

    def expect(got, want, what):
        nonlocal checked
        checked += 1
        if got != want:
            failures.append(f"{what}: got {got}, expected {want}")

    one = Fraction(1)
    expect(prod.table.get(l1), {(l1, lx): one, (lx, l1): -one}, "μ∨(1)")
    expect(
        prod.table.get(lw),
        {(l1, lxw): one, (lw, lx): -one, (lx, lw): -one, (lxw, l1): -one},
        "μ∨(s2-class)",
    )
    expect(cop.table.get((l1, l1), {}), {}, "δ∨(1⊗1)")
    expect(cop.table.get((lw, l1)), {l1: -one}, "δ∨(s2⊗1)")
    expect(cop.table.get((l1, lw)), {l1: one}, "δ∨(1⊗s2)")
    expect(cop.table.get((lw, lw)), {lw: -one}, "δ∨(s2⊗s2)")
    hp = brane_ops.dualize_to_homology(prod)
    # unit σ(x)∨; generators y = σ(1)∨ (degree -D), z = -σ(x·s2)∨ (degree D-2)
    expect(hp.table.get((lx, lx)), {lx: one}, "unit squares to itself")
    expect(hp.table.get((l1, l1), {}), {}, "y^2 = 0")
    expect(hp.table.get((lxw, lxw), {}), {}, "z^2 = 0")
    yz = hp.table.get((l1, lxw), {})
    expect(bool(yz), True, "y·z ≠ 0")
    zy = hp.table.get((lxw, l1), {})
    expect({k: -v for k, v in zy.items()}, yz, "y·z = -z·y")
    return [brane_ops.Report("golden example", not failures, checked, failures)]


def _suite_vanishing(mf, args) -> list:
    _needs_k2("vanishing", args)
    if not shriek.is_pure(mf.model):
        raise ModelError("vanishing suite needs a pure model")
    if all(g.is_odd for g in mf.model.algebra.generators):
        raise ModelError("vanishing suite needs at least one even generator")
    cop = brane_ops.brane_coproduct_dual(mf.model, 2, args.max_degree)
    bad = [
        f"δ∨({cop.rep_string(a)}⊗{cop.rep_string(b)}) ≠ 0"
        for (a, b), row in sorted(cop.table.items()) if row
    ]
    return [brane_ops.Report("coproduct vanishing", not bad, len(cop.table), bad)]


def _suite_signs(mf, args) -> list:
    failures = []
    checked = 3
    expected = -1 if len(mf.model.algebra.generators) % 2 else 1
    got = shriek.transposition_sign_loop(mf.model)
    if got != expected:
        failures.append(f"loop transposition sign {got}, expected {expected}")
    for deg in (args.k + 3, args.k + 4):  # one odd, one even suspension degree
        if shriek.one_generator_ext_sign(deg, args.k) != -1:
            failures.append(f"one-generator sign for degree {deg} is not -1")
    return [brane_ops.Report("sign laws", not failures, checked, failures)]


_SUITES = {
    "assoc": _suite_assoc,
    "comm": _suite_comm,
    "frobenius": _suite_frobenius,
    "golden": _suite_golden,
    "vanishing": _suite_vanishing,
    "signs": _suite_signs,
}


def _cmd_verify(args) -> int:
    mf = _load(args.model)
    mf.model.check()
    _check_info(mf)
    reports = _SUITES[args.suite](mf, args)
    ok = True
    for rep in reports:
        if rep.checked:
            print(rep)
        else:
            # a law checked on nothing has not passed
            print(f"{rep.name}: NOTHING CHECKED (no identity lies within "
                  f"--max-degree {args.max_degree})")
        ok = ok and rep.ok and rep.checked > 0
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point


_MAX_DEGREE_HELP = ("the highest degree computed (default 8); a monomial with an "
                    "exponent past {} is a model error (exit 2)")


def _max_degree(text: str) -> int:
    """Every --max-degree: a negative bound is a usage error, not a vacuous PASS."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer ≥ 0, got {text!r}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one: parsing leaves no state in it, and each handler reads what it
    needs at call time.  Importing the module builds nothing."""
    ap = argparse.ArgumentParser(
        prog="branecalc",
        description="Sullivan-model calculator for sphere mapping spaces: "
        "brane product/coproduct on cohomology with exact signs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    max_help = _MAX_DEGREE_HELP.format(GradedAlgebra().max_exponent)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("model", help="model file path, or - for stdin")
        p.add_argument("--format", choices=["table", "tsv"], default="table")
        p.set_defaults(fn=fn)
        return p

    add("check-dga", _cmd_check_dga, help="verify d² = 0")
    p = add("cohomology", _cmd_cohomology, help="cohomology table")
    p.add_argument("--max-degree", type=_max_degree, default=8, help=max_help)
    for kind in ("sphere", "disk", "path"):
        p = add(f"{kind}-model", lambda a, k=kind: _cmd_model(k, a),
                help=f"emit the {kind} mapping-space model")
        if kind != "path":
            p.add_argument("--k", type=int, default=2)
    for name, op in (("brane-product", "product μ∨"),
                     ("brane-coproduct", "coproduct δ∨")):
        p = add(name, _cmd_table, help=f"dual brane {op}")
        p.add_argument("--k", type=int, default=2)
        p.add_argument("--max-degree", type=_max_degree, default=8, help=max_help)
        p.add_argument("--homology", action="store_true")
    p = add("verify", _cmd_verify, help="run a verification suite")
    p.add_argument("--suite", choices=sorted(_SUITES), required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--max-degree", type=_max_degree, default=8, help=max_help)
    return ap


def main(argv: list[str] | None = None) -> int:
    """Run one command; main may be called any number of times in one
    process, and all calls share one parser."""
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # nothing is left to read the output: point stdout at devnull, so
        # the flush at exit cannot fail again, and exit silently
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ParseError, ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
