"""Where the benchmark cuts the program into layers, and the per-layer
metrics it derives from the spans recorded at those cuts.

Each entry of ``SPANS`` names a callable of a ``basechange`` module (or a
method, as ``Class.method``) and the span it is recorded under; several
callables may share one span name.  ``SETUP_SPANS`` are the entry points
timed in every run, traced or not.
"""

from __future__ import annotations

from collections import Counter

from tracer import outermost_time, self_times


def _order(args, result):
    yield "grpcore.elements_built", args[0].order


def _class_count(args, result):
    yield "grpcore.class_count", len(args[0])


def _oracle_k(args, result):
    yield "grpcore.oracle_k", len(result)


def _checks(args, result):
    yield "verify.checks", len(result.checks)
    yield "verify.checks_failed", sum(c.status != "pass" for c in result.checks)


SETUP_SPANS = (
    ("ffield", "FField.__init__", "ffield.make_field", None),
    ("grpcore", "GroupTable.__init__", "grpcore.build", _order),
    ("grpcore", "ConjClasses.__init__", "grpcore.classes", _class_count),
)

SPANS = SETUP_SPANS + (
    ("grpcore", "character_table", "grpcore.oracle", _oracle_k),
    ("grpcore", "inner_product", "grpcore.inner_product", None),
    ("grpcore", "restrict", "grpcore.restrict", None),
    ("grpcore", "induce", "grpcore.induce", None),
    ("grpcore", "table_to_csv", "grpcore.export", None),
    ("grpcore", "table_to_json", "grpcore.export", None),
    ("rankone", "build_gl2", "rankone.build", None),
    ("rankone", "build_sl2", "rankone.build", None),
    ("rankone", "build_u2", "rankone.build", None),
    ("rankone", "tau_classes", "rankone.tau_classes", None),
    ("rankone", "norm_class_map", "rankone.norm_class_map", None),
    ("cuspchar", "gl2_context", "cuspchar.context", None),
    ("cuspchar", "sl2_context", "cuspchar.context", None),
    ("cuspchar", "u2_context", "cuspchar.context", None),
    ("cuspchar", "sl2_cuspidal", "cuspchar.formula", None),
    ("cuspchar", "sl2_reducible_formula", "cuspchar.formula", None),
    ("cuspchar", "gl2_cuspidal", "cuspchar.formula", None),
    ("cuspchar", "u2_cuspidal", "cuspchar.u2_match", None),
    ("cuspchar", "match_oracle", "cuspchar.match", None),
    ("cuspchar", "sigma0", "cuspchar.sigma0", None),
    ("heis", "build_extraspecial", "heis.group", None),
    ("heis", "heisenberg_rep", "heis.rep", None),
    ("heis", "extend", "heis.extend", None),
    ("heis", "multiplicities", "heis.multiplicities", None),
    ("heis", "lemma_H_verify", "heis.lemma", None),
    ("heis", "torus_action_consequences", "heis.consequences", None),
    ("verify", "suite_level0_basechange", "verify.suite", _checks),
    ("verify", "suite_norm_bijection", "verify.suite", _checks),
    ("verify", "suite_restriction_sl2", "verify.suite", _checks),
    ("verify", "suite_endoscopic_finite", "verify.suite", _checks),
    ("verify", "suite_heisenberg", "verify.suite", _checks),
)

# Count-only wrappers: cyclotomic operations are too many for spans.
COUNTED = (
    ("cyclo", "Cyclotomic.__mul__", "cyclo.mul_calls"),
    ("cyclo", "Cyclotomic.__rmul__", "cyclo.mul_calls"),
    ("cyclo", "Cyclotomic.__add__", "cyclo.add_calls"),
    ("cyclo", "Cyclotomic.__radd__", "cyclo.add_calls"),
    ("cyclo", "Cyclotomic.__eq__", "cyclo.eq_calls"),
    ("cyclo", "Cyclotomic.promote", "cyclo.promote_calls"),
    ("cyclo", "Cyclotomic.conj", "cyclo.conj_calls"),
)

# lru-cached context factories whose cache_info() feeds the context counters.
CONTEXT_CACHES = (
    ("cuspchar", "gl2_context"),
    ("cuspchar", "sl2_context"),
    ("cuspchar", "u2_context"),
)

SETUP_NAMES = frozenset(name for _, _, name, _ in SETUP_SPANS)

_SELF = {
    "cli.main_s": "cli.main",
    "ffield.make_field_s": "ffield.make_field",
    "grpcore.build_s": "grpcore.build",
    "grpcore.classes_s": "grpcore.classes",
    "grpcore.oracle_s": "grpcore.oracle",
    "grpcore.inner_product_s": "grpcore.inner_product",
    "grpcore.restrict_s": "grpcore.restrict",
    "grpcore.induce_s": "grpcore.induce",
    "grpcore.export_s": "grpcore.export",
    "rankone.build_s": "rankone.build",
    "rankone.tau_classes_s": "rankone.tau_classes",
    "rankone.norm_class_map_s": "rankone.norm_class_map",
    "cuspchar.context_s": "cuspchar.context",
    "cuspchar.formula_s": "cuspchar.formula",
    "cuspchar.u2_match_s": "cuspchar.u2_match",
    "cuspchar.match_s": "cuspchar.match",
    "cuspchar.sigma0_s": "cuspchar.sigma0",
    "heis.group_s": "heis.group",
    "heis.rep_s": "heis.rep",
    "heis.extend_s": "heis.extend",
    "heis.multiplicities_s": "heis.multiplicities",
    "heis.lemma_s": "heis.lemma",
    "heis.consequences_s": "heis.consequences",
    "verify.suite_s": "verify.suite",
}

_CALLS = {
    "ffield.fields_built": "ffield.make_field",
    "grpcore.groups_built": "grpcore.build",
    "grpcore.oracle_tables": "grpcore.oracle",
    "grpcore.inner_products": "grpcore.inner_product",
    "grpcore.restricts": "grpcore.restrict",
    "grpcore.induces": "grpcore.induce",
    "cuspchar.formulas": "cuspchar.formula",
    "cuspchar.u2_matches": "cuspchar.u2_match",
    "cuspchar.matches": "cuspchar.match",
    "cuspchar.sigma0_calls": "cuspchar.sigma0",
}

_COUNTERS = (
    "grpcore.elements_built",
    "grpcore.class_count",
    "grpcore.oracle_k",
    "cuspchar.context_hits",
    "cuspchar.context_misses",
    "cyclo.mul_calls",
    "cyclo.add_calls",
    "cyclo.eq_calls",
    "cyclo.promote_calls",
    "cyclo.conj_calls",
    "verify.checks",
    "verify.checks_failed",
)

# Every per-layer metric with its unit; ``trace.wall_s`` is the traced
# wall time of a pass in plain seconds, and ``host.reference_s`` the time of
# one reference loop in the same run (see ``run.py``), its scale.
PER_LAYER_UNITS = dict(
    [("cli.start_s", "s"), ("trace.wall_s", "s"), ("host.reference_s", "s")]
    + [(m, "s") for m in _SELF]
    + [(m, "count") for m in _CALLS]
    + [(m, "count") for m in _COUNTERS]
    + [("cuspchar.sigma0_candidates", "count"), ("cuspchar.sigma0_hit_ratio", "ratio")]
)


def setup_time(spans: list[dict]) -> float:
    """Seconds inside field, group-table and conjugacy-class construction."""
    return outermost_time(spans, SETUP_NAMES)


def layer_metrics(spans: list[dict], counters: Counter, start_s: float, wall_s: float) -> dict:
    """Per-layer metrics of one pass from its spans and counters."""
    selfs = self_times(spans)
    calls = Counter(s["name"] for s in spans)
    out = {"cli.start_s": start_s, "trace.wall_s": wall_s}
    out.update((m, selfs.get(name, 0.0)) for m, name in _SELF.items())
    out.update((m, calls[name]) for m, name in _CALLS.items())
    out.update((m, counters.get(m, 0)) for m in _COUNTERS)
    sigma0_ids = {(s["cmd"], s["id"]) for s in spans if s["name"] == "cuspchar.sigma0"}
    candidates = sum(
        1
        for s in spans
        if s["name"] == "cuspchar.formula" and (s["cmd"], s["parent"]) in sigma0_ids
    )
    out["cuspchar.sigma0_candidates"] = candidates
    out["cuspchar.sigma0_hit_ratio"] = (
        out["cuspchar.sigma0_calls"] / candidates if candidates else 0.0
    )
    return out
