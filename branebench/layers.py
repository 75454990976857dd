"""branecalc's layers as the tracer sees them, and the per-layer metrics.

Every counter here is *computed* by the benchmark from the arguments and
results of a traced call (matrix shapes, nonzeros, pivot counts, basis
lengths); none is reported by branecalc itself.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import Span, Target


def _rref_counters(args, kwargs, result):
    rows = args[0]
    ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return {"entries": len(rows) * ncols,
            "nnz": sum(1 for row in rows for x in row if x),
            "rank": len(result[1])}


def _solve_counters(args, kwargs, result):
    a = args[0]
    return {"equations": len(a), "unknowns": len(a[0]) if a else 0}


def _nnz_counters(args, kwargs, result):
    return {"nnz": sum(1 for row in result for x in row if x)}


def _basis_counters(args, kwargs, result):
    return {"monomials": len(result)}


LA, CO, GC, DM = ("branecalc._linalg", "branecalc.cohomology",
                  "branecalc.gca_core", "branecalc.dga_models")
SH, BO, CLI = "branecalc.shriek", "branecalc.brane_ops", "branecalc.cli"

TARGETS = [
    Target("linalg.rref", LA, "rref", _rref_counters),
    Target("linalg.solve", LA, "solve", _solve_counters),
    Target("linalg.nullspace", LA, "nullspace"),
    Target("linalg.inverse", LA, "inverse"),
    Target("linalg.mat_mul", LA, "mat_mul"),
    Target("cohomology.basis", CO, "cohomology_basis"),
    Target("cohomology.d_matrix", CO, "d_matrix", _nnz_counters),
    Target("cohomology.class_vector", CO, "class_vector"),
    Target("cohomology.induced_map", CO, "induced_map"),
    Target("gca_core.basis", GC, "GradedAlgebra.basis", _basis_counters),
    Target("gca_core.mul", GC, "Element.__mul__"),
    Target("dga_models.d", DM, "Derivation.__call__"),
    *(Target("dga_models.build", DM, fn) for fn in (
        "sphere_model", "disk_model", "path_model", "tensor_model",
        "relative_tensor", "base_change", "quotient")),
    Target("dga_models.morphism", DM, "DgaMorphism.__call__"),
    Target("shriek.delta", SH, "shriek_delta_semipure"),
    Target("shriek.gamma", SH, "shriek_gamma_pure"),
    Target("brane_ops.pipeline", BO, "brane_product_dual"),
    Target("brane_ops.pipeline", BO, "brane_coproduct_dual"),
    *(Target("brane_ops.kunneth", BO, f"KunnethIndex.{fn}")
      for fn in ("pairs", "to_pairs", "pair_vector")),
    *(Target("brane_ops.check", BO, fn) for fn in (
        "check_associativity", "check_commutativity", "check_frobenius")),
    Target("brane_ops.dualize", BO, "dualize_to_homology"),
    Target("cli.parse", CLI, "parse_model"),
    Target("cli.main", CLI, "main"),
]

LAYERS = list(dict.fromkeys(t.layer for t in TARGETS))

# name -> unit, better; the order here is the order metrics are reported in
METRICS: dict[str, tuple[str, str]] = {}
for _layer in LAYERS:
    METRICS[f"{_layer}.calls"] = ("count", "lower")
    METRICS[f"{_layer}.self_s"] = ("s", "lower")
METRICS.update({
    "linalg.rref.entries": ("count", "lower"),
    "linalg.rref.nnz": ("count", "lower"),
    "linalg.rref.density": ("ratio", "higher"),
    "linalg.rref.rank": ("count", "lower"),
    "linalg.solve.equations": ("count", "lower"),
    "linalg.solve.unknowns": ("count", "lower"),
    "cohomology.basis.computed": ("count", "lower"),
    "cohomology.basis.hit_ratio": ("ratio", "higher"),
    "cohomology.d_matrix.nnz": ("count", "lower"),
    "gca_core.basis.monomials": ("count", "lower"),
    "shriek.delta.equations": ("count", "lower"),
    "shriek.delta.unknowns": ("count", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
})


def _total(spans: list[Span], key: str) -> int:
    return sum(s.counters[key] for s in spans if s.counters)


def pass_metrics(spans: list[Span], wall_s: float, factor: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took wall_s; self times are
    multiplied by factor, the pass's scaling to the reference speed.
    (trace.overhead is left out: it compares against the untraced passes.)"""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = len(by_name[layer])
        out[f"{layer}.self_s"] = sum(s.self_s for s in by_name[layer]) * factor

    rref = by_name["linalg.rref"]
    out["linalg.rref.entries"] = _total(rref, "entries")
    out["linalg.rref.nnz"] = _total(rref, "nnz")
    out["linalg.rref.density"] = (out["linalg.rref.nnz"] / out["linalg.rref.entries"]
                                  if out["linalg.rref.entries"] else 0.0)
    out["linalg.rref.rank"] = _total(rref, "rank")
    solves = by_name["linalg.solve"]
    out["linalg.solve.equations"] = _total(solves, "equations")
    out["linalg.solve.unknowns"] = _total(solves, "unknowns")

    # cohomology_basis calls d_matrix exactly when it misses its cache
    computing = {s.parent for s in by_name["cohomology.d_matrix"]}
    bases = by_name["cohomology.basis"]
    computed = sum(1 for s in bases if s.id in computing)
    out["cohomology.basis.computed"] = computed
    out["cohomology.basis.hit_ratio"] = (len(bases) - computed) / len(bases) if bases else 0.0
    out["cohomology.d_matrix.nnz"] = _total(by_name["cohomology.d_matrix"], "nnz")
    out["gca_core.basis.monomials"] = _total(by_name["gca_core.basis"], "monomials")

    by_id = {s.id: s for s in spans}
    delta_ids = {s.id for s in by_name["shriek.delta"]}

    def under_delta(s: Span) -> bool:
        while s.parent is not None:
            if s.parent in delta_ids:
                return True
            s = by_id[s.parent]
        return False

    delta_solves = [s for s in solves if under_delta(s)]
    out["shriek.delta.equations"] = _total(delta_solves, "equations")
    out["shriek.delta.unknowns"] = _total(delta_solves, "unknowns")
    covered = sum(s.duration for s in spans if s.parent is None)
    out["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
    return out
