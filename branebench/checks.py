"""Independent checks of branecalc CLI output.

These checks read only the printed text: they parse the TSV tables and test
known values and structure laws with their own arithmetic.  They never call
into ``branecalc``.  ``record.py`` stores an operation's reference digest
only after its check passes, so a reference is never just whatever the
program printed.

Each check takes ``(op, exit_code, stdout)`` and returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

# ---------------------------------------------------------------------------
# parsing

HEADERS = {
    ("degree", "class", "left", "right", "coefficient"): "product-dual",
    ("degree", "left", "right", "value", "coefficient"): "coproduct-dual",
    ("left", "right", "value", "coefficient"): "homology-product",
    ("class", "left", "right", "coefficient"): "homology-coproduct",
    ("degree", "dim", "representatives"): "cohomology",
    ("generator", "degree", "d"): "model",
}


def parse_tables(text: str) -> list[tuple[str, list[list[str]]]]:
    """Split TSV output into (kind, rows) tables at the known header lines."""
    tables: list[tuple[str, list[list[str]]]] = []
    for line in text.splitlines():
        cells = line.split("\t")
        kind = HEADERS.get(tuple(cells))
        if kind is not None:
            tables.append((kind, []))
        elif not tables:
            raise ValueError(f"data before any table header: {line!r}")
        else:
            tables[-1][1].append(cells)
    return tables


def option(op, flag: str, default: int) -> int:
    argv = op.argv
    return int(argv[argv.index(flag) + 1]) if flag in argv else default


def model_degrees(path: str) -> dict[str, int]:
    """Generator degrees declared in a model file (``gen NAME DEGREE``)."""
    degrees = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        words = line.split("#", 1)[0].split()
        if len(words) == 3 and words[0] == "gen":
            degrees[words[1]] = int(words[2])
    return degrees


def generator_degree(name: str, base: dict[str, int]) -> int:
    """Degree of a base generator ``v`` or a suspension ``s{j}_v``."""
    if name in base:
        return base[name]
    m = re.fullmatch(r"s(\d+)_(.+)", name)
    if m is None or m.group(2) not in base:
        raise ValueError(f"unknown generator {name!r}")
    return base[m.group(2)] - int(m.group(1))


def parse_element(text: str) -> dict[tuple, Fraction]:
    """``-1/2*x*s2_y + y*s2_x`` -> {monomial: coefficient}; a monomial is a
    sorted tuple of (generator, exponent)."""
    text = text.strip()
    if text == "0":
        return {}
    terms: dict[tuple, Fraction] = {}
    for sign, body in re.findall(r"(^-|^|\s[-+]\s)([^\s]+)", text):
        coeff = Fraction(-1 if sign.strip() == "-" else 1)
        factors = []
        for f in body.split("*"):
            if re.fullmatch(r"\d+(/\d+)?", f):
                coeff *= Fraction(f)
            else:
                name, _, exp = f.partition("^")
                factors.append((name, int(exp or 1)))
        mono = tuple(sorted(factors))
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return {m: c for m, c in terms.items() if c}


def label_degree(label: str, base: dict[str, int]) -> int:
    """Degree of a class printed as its representative cocycle."""
    if label.startswith("σ(") and label.endswith(")"):
        label = label[2:-1]
    mono = next(iter(parse_element(label)))
    return sum(generator_degree(g, base) * e for g, e in mono)


def _sign(parity: int) -> int:
    return -1 if parity % 2 else 1


def _add(acc: dict, key, value: Fraction) -> None:
    total = acc.get(key, Fraction(0)) + value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


# ---------------------------------------------------------------------------
# structure laws on parsed tables


def product_table(rows) -> dict[str, dict[tuple[str, str], Fraction]]:
    table: dict = {}
    for _deg, c, a, b, coeff in rows:
        table.setdefault(c, {})[(a, b)] = Fraction(coeff)
    return table


def product_laws(rows, base: dict[str, int], max_degree: int) -> list[str]:
    """Graded commutativity and associativity of a dual product table.

    μ∨(c) = Σ coeff·a⊗b.  Commutativity: τ(μ∨(c)) = (-1)^m μ∨(c) with the
    Koszul sign on the swap.  Associativity: (μ∨⊗id)μ∨ = (-1)^m (id⊗̂μ∨)μ∨,
    where (id⊗̂F)(a⊗b) = (-1)^(m|a|) a⊗F(b).  A class of degree at most
    max_degree that has no rows has μ∨ = 0; identities that need a class
    above max_degree are skipped.
    """
    failures = []
    if not rows:
        return ["empty product table"]
    deg = {}
    shifts = set()
    for d, c, a, b, _coeff in rows:
        for lab in (c, a, b):
            deg[lab] = label_degree(lab, base)
        if deg[c] != int(d):
            failures.append(f"degree column {d} disagrees with class {c}")
        shifts.add(deg[a] + deg[b] - deg[c])
    if len(shifts) != 1:
        return failures + [f"product shifts degree inconsistently: {sorted(shifts)}"]
    m = shifts.pop()
    table = product_table(rows)

    def mu(label):
        if label in table:
            return table[label]
        return {} if deg[label] <= max_degree else None

    for c, row in table.items():
        swapped: dict = {}
        for (a, b), coeff in row.items():
            _add(swapped, (b, a), coeff * _sign(deg[a] * deg[b]))
        if swapped != {k: v * _sign(m) for k, v in row.items()}:
            failures.append(f"graded commutativity fails on μ∨({c})")

    checked = 0
    for c, row in table.items():
        if any(mu(lab) is None for pair in row for lab in pair):
            continue
        lhs: dict = {}
        rhs: dict = {}
        for (a, b), coeff in row.items():
            for (u, v), c2 in mu(a).items():
                _add(lhs, (u, v, b), coeff * c2)
            for (u, v), c2 in mu(b).items():
                _add(rhs, (a, u, v), coeff * c2 * _sign(m * deg[a]) * _sign(m))
        checked += 1
        if lhs != rhs:
            failures.append(f"associativity fails on μ∨({c})")
    if not checked:
        failures.append("no associativity identity lies inside the computed range")
    return failures


def homology_is_transpose(dual_rows, hom_rows) -> list[str]:
    """The homology product table is the dual table transposed, up to sign."""
    dual = {(a, b, c): abs(Fraction(k)) for _d, c, a, b, k in dual_rows}
    hom = {(a[2:-1], b[2:-1], c[2:-1]): abs(Fraction(k)) for a, b, c, k in hom_rows}
    return [] if dual == hom else ["homology table is not the transposed dual table"]


def coassociative(table: dict) -> bool:
    """(δ⊗1)δ = (1⊗δ)δ on a homology coproduct table c -> {(a, b): coeff}."""
    left: dict = {}
    right: dict = {}
    for c, row in table.items():
        for (a, b), co in row.items():
            for (a1, a2), co2 in table.get(a, {}).items():
                _add(left, (c, a1, a2, b), co * co2)
            for (b1, b2), co2 in table.get(b, {}).items():
                _add(right, (c, a, b1, b2), co * co2)
    return left == right


# ---------------------------------------------------------------------------
# golden values

# Dual-level values for the odd sphere S3 (acceptance criterion 2), with the
# classes 1, s2_x, x, x*s2_x of degrees 0, 1, 3, 4.
S3_PRODUCT_GOLDEN = {
    "1": {("1", "x"): 1, ("x", "1"): -1},
    "s2_x": {("1", "x*s2_x"): 1, ("s2_x", "x"): -1, ("x", "s2_x"): -1,
             ("x*s2_x", "1"): -1},
}
S3_COPRODUCT_GOLDEN = {
    ("1", "1"): {},
    ("s2_x", "1"): {"1": -1},
    ("1", "s2_x"): {"1": 1},
    ("s2_x", "s2_x"): {"s2_x": -1},
}
# The shifted-homology product of S3 is the exterior algebra ∧(y, z) with
# unit σ(x), y = σ(1), z = -σ(x*s2_x) (acceptance criterion 1, product part).
S3_HOMOLOGY_PRODUCT = {
    ("x", "x"): {"x": 1},
    ("x", "1"): {"1": 1},
    ("1", "x"): {"1": 1},
    ("x", "x*s2_x"): {"x*s2_x": 1},
    ("x*s2_x", "x"): {"x*s2_x": 1},
    ("1", "x*s2_x"): {"s2_x": -1},
    ("x*s2_x", "1"): {"s2_x": 1},
    ("1", "1"): {},
    ("x*s2_x", "x*s2_x"): {},
}
# Criterion 1's homology coproduct entries, except the disputed top-class
# entry δ(σ(s2_x)); that one is pinned by coassociativity instead.
S3_HOMOLOGY_COPRODUCT = {
    "x": {("x", "s2_x"): 1, ("1", "x*s2_x"): 1, ("x*s2_x", "1"): -1,
          ("s2_x", "x"): 1},
    "1": {("1", "s2_x"): 1, ("s2_x", "1"): 1},
    "x*s2_x": {("x*s2_x", "s2_x"): 1, ("s2_x", "x*s2_x"): 1},
}

# Betti numbers of the example models: H(S3) = ∧(x), H(S4) = Q[x]/(x²),
# H(S3×S3) = ∧(x1, x2).
BETTI = {
    "models/s3.model": {0: 1, 3: 1},
    "models/s4.model": {0: 1, 4: 1},
    "models/s3xs3.model": {0: 1, 3: 2, 6: 1},
}

# Differentials of the S4 mapping-space models, worked out by hand from the
# constructions in dga_models' docstring (dx = 0, dy = x²):
#   sphere, k = 2: d(s1_y) = -s1(x²) = -2·x·s1_x;
#   disk:          d(s2_x) = s1_x, d(s2_y) = s1_y + s2(x²) = s1_y + 2·x·s2_x;
#   path:          d(s1_y) = y@R - y@L - (sd)(y@L) - (sd)²(y@L)/2
#                          = y@R - y@L - x@L·s1_x - x@R·s1_x.
S4_SUSPENSIONS = {
    "sphere": {"s1_x": (3, "0"), "s1_y": (6, "-2*x*s1_x")},
    "disk": {"s1_x": (3, "0"), "s1_y": (6, "-2*x*s1_x"),
             "s2_x": (2, "s1_x"), "s2_y": (5, "s1_y + 2*x*s2_x")},
    "path": {"s1_x": (3, "x@R - x@L"), "s1_y": (6, "y@R - y@L - x@L*s1_x - x@R*s1_x")},
}


def _expected_model(kind: str, path: str) -> dict[str, tuple[int, str]]:
    """generator -> (degree, d) for the k = 2 sphere/disk model or the path
    model of one of the example files."""
    base = model_degrees(path)
    if path == "models/s4.model":
        if kind == "path":
            gens = {"x@L": (4, "0"), "y@L": (7, "x@L^2"),
                    "x@R": (4, "0"), "y@R": (7, "x@R^2")}
        else:
            gens = {"x": (4, "0"), "y": (7, "x^2")}
        return {**gens, **S4_SUSPENSIONS[kind]}
    # the odd-sphere examples have d = 0 on every generator
    out = {}
    if kind == "path":
        out.update({f"{v}@{side}": (d, "0") for side in "LR" for v, d in base.items()})
        out.update({f"s1_{v}": (d - 1, f"{v}@R - {v}@L") for v, d in base.items()})
        return out
    out.update({v: (d, "0") for v, d in base.items()})
    out.update({f"s1_{v}": (d - 1, "0") for v, d in base.items()})
    if kind == "disk":
        out.update({f"s2_{v}": (d - 2, f"s1_{v}") for v, d in base.items()})
    return out


# ---------------------------------------------------------------------------
# checks, by name


def _tables(stdout: str, kinds: tuple[str, ...]) -> list[list[list[str]]]:
    tables = parse_tables(stdout)
    got = tuple(kind for kind, _ in tables)
    if got != kinds:
        raise ValueError(f"expected tables {kinds}, got {got}")
    return [rows for _, rows in tables]


def _model_path(op) -> str:
    return next(a for a in op.argv if a.endswith(".model"))


def check_vanishing_table(op, rc, stdout):
    (rows,) = _tables(stdout, ("coproduct-dual",))
    return [f"{len(rows)} data rows; the coproduct of S4 must vanish"] if rows else []


def check_product_laws(op, rc, stdout):
    base = model_degrees(_model_path(op))
    kinds = ("product-dual", "homology-product") if "--homology" in op.argv \
        else ("product-dual",)
    tables = _tables(stdout, kinds)
    failures = product_laws(tables[0], base, option(op, "--max-degree", 8))
    if len(tables) == 2:
        failures += homology_is_transpose(tables[0], tables[1])
    return failures


def _compare(what: str, got: dict, want: dict) -> list[str]:
    want = {k: Fraction(v) for k, v in want.items()}
    return [] if got == want else [f"{what}: got {got}, expected {want}"]


def check_s3_product_golden(op, rc, stdout):
    failures = check_product_laws(op, rc, stdout)
    dual, hom = _tables(stdout, ("product-dual", "homology-product"))
    table = product_table(dual)
    for c, want in S3_PRODUCT_GOLDEN.items():
        failures += _compare(f"μ∨({c})", table.get(c, {}), want)
    htable: dict = {}
    for a, b, c, k in hom:
        htable.setdefault((a[2:-1], b[2:-1]), {})[c[2:-1]] = Fraction(k)
    for key, want in S3_HOMOLOGY_PRODUCT.items():
        failures += _compare(f"σ{key[0]}·σ{key[1]}", htable.get(key, {}), want)
    return failures


def check_s3_coproduct_golden(op, rc, stdout):
    dual, hom = _tables(stdout, ("coproduct-dual", "homology-coproduct"))
    failures = []
    table: dict = {}
    for _d, a, b, c, k in dual:
        table.setdefault((a, b), {})[c] = Fraction(k)
    for key, want in S3_COPRODUCT_GOLDEN.items():
        failures += _compare(f"δ∨({key[0]}⊗{key[1]})", table.get(key, {}), want)
    htable: dict = {}
    for c, a, b, k in hom:
        htable.setdefault(c[2:-1], {})[(a[2:-1], b[2:-1])] = Fraction(k)
    for c, want in S3_HOMOLOGY_COPRODUCT.items():
        failures += _compare(f"δ(σ({c}))", htable.get(c, {}), want)
    if not coassociative(htable):
        failures.append("homology coproduct is not coassociative")
    return failures


def check_d_squared_ok(op, rc, stdout):
    return [] if stdout == "OK: d^2 = 0\n" else [f"unexpected output {stdout!r}"]


def check_cohomology_dims(op, rc, stdout):
    (rows,) = _tables(stdout, ("cohomology",))
    betti = BETTI[_model_path(op)]
    top = option(op, "--max-degree", 8)
    failures = []
    if [int(r[0]) for r in rows] != list(range(top + 1)):
        failures.append("degrees are not 0..max-degree")
    for n, dim, reps in rows:
        want = betti.get(int(n), 0)
        nreps = len(reps.split(", ")) if reps else 0
        if int(dim) != want or nreps != want:
            failures.append(f"H^{n}: dim {dim} with {nreps} representatives, expected {want}")
    return failures


def _check_model(kind):
    def check(op, rc, stdout):
        (rows,) = _tables(stdout, ("model",))
        got = {name: (int(deg), parse_element(d)) for name, deg, d in rows}
        want = {name: (deg, parse_element(d))
                for name, (deg, d) in _expected_model(kind, _model_path(op)).items()}
        return [] if got == want else [f"{kind} model: got {got}, expected {want}"]
    return check


def check_verify_pass(op, rc, stdout):
    lines = [ln for ln in stdout.splitlines() if ln and not ln.startswith(" ")]
    ok = [re.fullmatch(r".+: PASS \(([1-9]\d*) identities\)", ln) for ln in lines]
    if not lines or not all(ok):
        return [f"verification did not pass: {stdout!r}"]
    return []


def check_usage_error(op, rc, stdout):
    return [] if stdout == "" else [f"an error path printed {stdout!r}"]


CHECKS = {
    "vanishing-table": check_vanishing_table,
    "product-laws": check_product_laws,
    "s3-product-golden": check_s3_product_golden,
    "s3-coproduct-golden": check_s3_coproduct_golden,
    "d-squared-ok": check_d_squared_ok,
    "cohomology-dims": check_cohomology_dims,
    "sphere-model": _check_model("sphere"),
    "disk-model": _check_model("disk"),
    "path-model": _check_model("path"),
    "verify-pass": check_verify_pass,
    "usage-error": check_usage_error,
}

def check(op, rc: int, stdout: str) -> list[str]:
    """Run the independent check an operation names.  Error paths must exit
    with code 2, everything else with 0."""
    want_rc = 2 if op.check == "usage-error" else 0
    if rc != want_rc:
        return [f"exit code {rc}, expected {want_rc}"]
    try:
        return CHECKS[op.check](op, rc, stdout)
    except (ValueError, KeyError, IndexError, StopIteration) as exc:
        return [f"unparseable output: {exc!r}"]
