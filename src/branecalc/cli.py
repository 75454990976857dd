"""Command-line interface and the model-file language.

Model files declare a minimal Sullivan algebra:

    algebra S4          # optional header
    gen x 4             # generator, degree
    gen y 7
    d y = x^2           # differential assignment (default 0)
    info m = 4          # optional formal-dimension overrides (m, mbar)

Commands: check-dga, cohomology, sphere-model, disk-model, path-model,
brane-product, brane-coproduct, verify.  Exit codes: 0 ok, 1 verification
failure (or a suite that found nothing to check within --max-degree), 2 usage
or model error.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .gca_core import Element, GradedAlgebra
from .cohomology import cohomology_basis
from .dga_models import (
    Derivation,
    DgaModel,
    ModelError,
    disk_model,
    path_model,
    sphere_model,
)
from . import brane_ops, shriek


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int = 0):
        super().__init__(f"line {line}, col {col}: {msg}")
        self.line = line
        self.col = col


@dataclass
class ModelFile:
    name: str | None
    gens: list  # [(name, degree)]
    diffs: dict  # name -> Element (in the built algebra)
    info: dict  # key -> int
    model: DgaModel = field(repr=False, default=None)


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
            raise ParseError("unexpected end of expression", self.line)
        t = self.toks[self.i]
        self.i += 1
        return t

    def expr(self) -> Element:
        sign = 1
        if self.peek() == "-":
            self.next()
            sign = -1
        elif self.peek() == "+":
            self.next()
        out = self.term() * sign
        while self.peek() in ("+", "-"):
            op, _ = self.next()
            t = self.term()
            out = out + (t if op == "+" else -t)
        if self.i != len(self.toks):
            tok, col = self.toks[self.i]
            raise ParseError(f"unexpected token {tok!r}", self.line, col)
        return out

    def term(self) -> Element:
        coeff = Fraction(1)
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
                return self.alg.scalar(coeff)
        out = self.factor()
        while self.peek() == "*":
            self.next()
            out = out * self.factor()
        return out * coeff

    def factor(self) -> Element:
        tok, col = self.next()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_@']*", tok):
            raise ParseError(f"expected a generator name, got {tok!r}", self.line, col)
        if not self.alg.has_gen(tok):
            raise ParseError(f"unknown generator {tok!r}", self.line, col)
        if self.peek() != "^":
            return self.alg.generator_element(tok)
        self.next()
        etok, ecol = self.next()
        if not etok.isdigit():
            raise ParseError(f"expected an integer exponent, got {etok!r}",
                             self.line, ecol)
        # g^e as one monomial, so a huge exponent costs no e products
        g, e = self.alg.gen(tok), int(etok)
        if g.is_odd and e > 1:
            return self.alg.zero()
        return self.alg.monomial_element(((g.gid, e),) if e else ())


def parse_model(text: str) -> ModelFile:
    """Parse a model file and build the underlying (∧V, d)."""
    name: str | None = None
    gens: list = []
    diffs: dict = {}
    info: dict = {}
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
            if alg.has_gen(nm):
                raise ParseError(f"duplicate generator {nm!r}", lineno, toks[1][1])
            alg.add_generator(nm, deg)
            gens.append((nm, deg))
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
            if len(toks) == 5 and toks[3][0] == "-" and toks[4][0].isdigit():
                info[key] = -int(toks[4][0])
            elif len(toks) == 4 and toks[3][0].isdigit():
                info[key] = int(toks[3][0])
            else:
                raise ParseError("info value must be an integer", lineno, toks[3][1])
        else:
            raise ParseError(f"unknown declaration {head!r}", lineno, col)
    for nm, (toks, lineno) in raw_diffs.items():
        e = _ExprParser(toks, lineno, alg).expr()
        want = alg.gen(nm).degree + 1
        try:
            got = e.degree()
        except ValueError:
            raise ParseError(f"d {nm} must be homogeneous of degree {want}", lineno)
        if got is not None and got != want:
            raise ParseError(
                f"d {nm} must be homogeneous of degree {want}, got degree {got}",
                lineno,
            )
        if got is not None:
            diffs[nm] = e
    images = {alg.gen(nm).gid: e for nm, e in diffs.items()}
    model = DgaModel(alg, Derivation(alg, 1, images), tuple(range(len(gens))))
    return ModelFile(name, gens, diffs, info, model)


def print_model(mf: ModelFile) -> str:
    """Canonical text form; parse(print(m)) round-trips."""
    lines = []
    if mf.name:
        lines.append(f"algebra {mf.name}")
    for nm, deg in mf.gens:
        lines.append(f"gen {nm} {deg}")
    for nm, _ in mf.gens:
        if nm in mf.diffs:
            lines.append(f"d {nm} = {mf.diffs[nm]!r}")
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


def _load(path: str) -> ModelFile:
    if path == "-":
        return parse_model(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())


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


def _info(mf: ModelFile, k: int) -> shriek.GorensteinInfo:
    return shriek.gorenstein_info(
        mf.model, k, m=mf.info.get("m"), m_bar=mf.info.get("mbar")
    )


def _rows(table: dict, rep, degree: bool) -> list:
    """The rows of a table {key: {key: coefficient}}, each key a class label
    or a pair of labels: the key's degree (if degree), the representatives
    rep(label) of the key and of the other side, then the coefficient."""
    def labels(key):
        return key if isinstance(key[0], tuple) else (key,)

    rows = []
    for key, row in sorted(table.items()):
        head = [sum(c[0] for c in labels(key))] if degree else []
        for other, coeff in sorted(row.items()):
            reps = [rep(c) for c in (*labels(key), *labels(other))]
            rows.append([*head, *reps, str(coeff)])
    return rows


def _cmd_table(build, headers: tuple[list, list], args) -> int:
    """brane-product or brane-coproduct: the dual table the operation build
    returns, then with --homology its dualization."""
    mf = _load(args.model)
    mf.model.check()
    op = build(mf.model, args.k, _info(mf, args.k), args.max_degree)
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
    info = _info(mf, args.k)
    top = args.max_degree
    prod = brane_ops.brane_product_dual(
        mf.model, args.k, info, top + max(info.m, 0)
    )
    return [brane_ops.check_associativity(prod, top)]


def _suite_comm(mf, args) -> list:
    info = _info(mf, args.k)
    prod = brane_ops.brane_product_dual(mf.model, args.k, info, args.max_degree)
    reports = [brane_ops.check_commutativity(prod)]
    if args.k == 2 and shriek.is_pure(mf.model):
        cop = brane_ops.brane_coproduct_dual(mf.model, args.k, info, args.max_degree)
        reports.append(brane_ops.check_commutativity(cop))
    return reports


def _suite_frobenius(mf, args) -> list:
    info = _info(mf, args.k)
    prod = brane_ops.brane_product_dual(mf.model, args.k, info, args.max_degree)
    cop = brane_ops.brane_coproduct_dual(mf.model, args.k, info, args.max_degree)
    return [brane_ops.check_frobenius(prod, cop, args.max_degree)]


def _suite_golden(mf, args) -> list:
    """The odd-sphere worked example: dual-level values and the homology
    product structure (exterior algebra on two generators)."""
    gens = mf.model.algebra.generators
    if len(gens) != 1 or not gens[0].is_odd or gens[0].degree < 3:
        raise ModelError("golden suite needs a single odd generator of degree ≥ 3")
    D = gens[0].degree
    info = _info(mf, 2)
    top = max(2 * D - 2, 8)
    prod = brane_ops.brane_product_dual(mf.model, 2, info, top)
    cop = brane_ops.brane_coproduct_dual(mf.model, 2, info, top)
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
    if not shriek.is_pure(mf.model):
        raise ModelError("vanishing suite needs a pure model")
    if all(g.is_odd for g in mf.model.algebra.generators):
        raise ModelError("vanishing suite needs at least one even generator")
    info = _info(mf, 2)
    cop = brane_ops.brane_coproduct_dual(mf.model, 2, info, args.max_degree)
    bad = [
        f"δ∨({cop.rep_string(a)}⊗{cop.rep_string(b)}) ≠ 0"
        for (a, b), row in sorted(cop.table.items()) if row
    ]
    return [brane_ops.Report("coproduct vanishing", not bad, len(cop.table), bad)]


def _suite_signs(mf, args) -> list:
    info = _info(mf, 2)
    failures = []
    checked = 3
    expected = -1 if (info.p + info.q) % 2 else 1
    got = shriek.transposition_sign_loop(
        mf.model, shriek.delta_cutoff(mf.model, args.max_degree)
    )
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


def _max_degree(text: str) -> int:
    """Every --max-degree: a negative bound is a usage error, not a vacuous PASS."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer ≥ 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="branecalc",
        description="Sullivan-model calculator for sphere mapping spaces: "
        "brane product/coproduct on cohomology with exact signs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("model", help="model file path, or - for stdin")
        p.add_argument("--format", choices=["table", "tsv"], default="table")
        p.set_defaults(fn=fn)
        return p

    add("check-dga", _cmd_check_dga, help="verify d² = 0")
    p = add("cohomology", _cmd_cohomology, help="cohomology table")
    p.add_argument("--max-degree", type=_max_degree, default=8)
    for kind in ("sphere", "disk", "path"):
        p = add(f"{kind}-model", lambda a, k=kind: _cmd_model(k, a),
                help=f"emit the {kind} mapping-space model")
        if kind != "path":
            p.add_argument("--k", type=int, default=2)
    for name, build, op, headers in (
        ("brane-product", brane_ops.brane_product_dual, "product μ∨",
         (["degree", "class", "left", "right", "coefficient"],
          ["left", "right", "value", "coefficient"])),
        ("brane-coproduct", brane_ops.brane_coproduct_dual, "coproduct δ∨",
         (["degree", "left", "right", "value", "coefficient"],
          ["class", "left", "right", "coefficient"])),
    ):
        p = add(name, lambda a, b=build, h=headers: _cmd_table(b, h, a),
                help=f"dual brane {op}")
        p.add_argument("--k", type=int, default=2)
        p.add_argument("--max-degree", type=_max_degree, default=8)
        p.add_argument("--homology", action="store_true")
    p = add("verify", _cmd_verify, help="run a verification suite")
    p.add_argument("--suite", choices=sorted(_SUITES), required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--max-degree", type=_max_degree, default=8)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
